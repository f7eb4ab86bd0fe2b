// One TCP connection between two processes — the only socket type that
// net::Transport and net::ClientSwarm are built from.
//
// A Connection owns its socket, its reactor slot, a SendQueue and a
// FrameDecoder, and does the three things every socket here needs:
//
//   * open: a non-blocking dial (dial) or the adoption of an accepted
//     socket (adopt);
//   * the edge-triggered read drain: read until EAGAIN and hand every
//     complete frame to the owner;
//   * the flush: one sendmsg(MSG_NOSIGNAL) per gathered batch of queued
//     frames, parking on EAGAIN until the next EPOLLOUT edge.
//
// Every connection is bidirectional: frames flow both ways whichever side
// dialed, so a request's reply rides back on the socket the request came
// in on. The owner gives a connection its meaning (a replica-mesh peer, a
// client's reply route, a swarm client's link to one replica) through
// three callbacks. Everything runs on the owning reactor's thread.
//
// Write discipline: enqueue() only buffers. The owner records a connection
// that mark_dirty() reports newly dirty and runs flush_dirty() over its
// list once per cycle (the reactor's before-wait hook), so a burst of
// frames shares one sendmsg instead of paying a syscall each.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "abdkit/common/message.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/net/frame.hpp"
#include "abdkit/net/reactor.hpp"
#include "abdkit/net/send_queue.hpp"
#include "abdkit/wire/codec.hpp"

struct sockaddr_in;

namespace abdkit::net {

/// A TCP endpoint in an address table.
struct Address {
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};
};

/// Parse "host:port". Returns false on malformation.
[[nodiscard]] bool parse_address(const std::string& text, Address& out);

/// Parse a comma-separated address table "h:p,h:p,...".
[[nodiscard]] bool parse_address_list(const std::string& text, std::vector<Address>& out);

/// Fill `out` for `address`; false if the host is not an IPv4 literal.
[[nodiscard]] bool to_sockaddr(const Address& address, sockaddr_in& out);

class Connection {
 public:
  /// Why a connection closed.
  enum class Closed : std::uint8_t {
    kDialFailed,    ///< the dial never completed
    kDisconnected,  ///< EOF or a socket error on an open connection
    kCorrupt,       ///< the peer sent an undecodable stream
  };

  struct Callbacks {
    /// A dial completed (adopted sockets never call it). Queued frames are
    /// flushed right after it returns.
    std::function<void()> on_connected;
    /// One decoded frame.
    std::function<void(Frame& frame)> on_frame;
    /// The socket is gone and its queued bytes were dropped (the
    /// crash-fault model: in-flight messages are lost). The connection may
    /// be dialed again, but must not be destroyed before the reactor's
    /// current cycle ends.
    std::function<void(Closed why)> on_closed;
  };

  /// `metrics` (optional, borrowed) receives net.read_calls, net.bytes_in,
  /// net.bytes_out, net.writev_calls, net.writev_iovecs, net.disconnects
  /// and net.dropped_bytes.
  Connection(Reactor& reactor, Callbacks callbacks, std::size_t max_send_buffer,
             std::uint32_t max_frame_length, Metrics* metrics);
  /// Closes the socket; the reactor must still exist.
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Start a non-blocking dial. A dial that fails at once calls
  /// on_closed(kDialFailed) before returning.
  void dial(const Address& to);

  /// Take over an accepted (already connected) socket.
  void adopt(int fd);

  /// Encode one frame into the send queue; it leaves on the next flush
  /// once the connection is open. False if the queue's byte cap would be
  /// breached: the frame is dropped and the caller counts it.
  [[nodiscard]] bool enqueue(ProcessId src, ProcessId dst, const Payload& payload,
                             wire::WireFormat format);
  /// Append already-encoded whole frames, under the same cap.
  [[nodiscard]] bool enqueue_bytes(std::span<const std::byte> frames);

  /// True when the connection is open and was not yet due a flush; the
  /// caller then adds it to the dirty list it passes to flush_dirty().
  [[nodiscard]] bool mark_dirty() noexcept;

  /// Flush every connection in `dirty` still due one, and empty the list.
  static void flush_dirty(std::vector<Connection*>& dirty);

  /// Close the socket and drop the queue, without calling on_closed.
  void close();

  [[nodiscard]] bool closed() const noexcept { return state_ == State::kClosed; }
  /// The src of the last frame received (kNoProcess before the first).
  [[nodiscard]] ProcessId last_src() const noexcept { return last_src_; }
  /// Why the last stream was rejected, after on_closed(kCorrupt).
  [[nodiscard]] const std::string& decode_error() const noexcept {
    return decoder_.error();
  }
  [[nodiscard]] const SendQueue& queue() const noexcept { return queue_; }

 private:
  enum class State : std::uint8_t { kClosed, kConnecting, kOpen };

  void open(int fd, State state);
  void on_event(std::uint32_t events);
  void flush();
  void fail(Closed why);
  void count(std::string_view name, std::uint64_t delta = 1);

  Reactor* reactor_;
  Callbacks callbacks_;
  Metrics* metrics_;
  std::uint32_t max_frame_length_;
  int fd_{-1};
  std::uint32_t slot_{0};
  State state_{State::kClosed};
  /// Due a flush in this cycle's flush_dirty pass.
  bool flush_pending_{false};
  /// sendmsg hit EAGAIN; no write until the next EPOLLOUT edge.
  bool write_blocked_{false};
  ProcessId last_src_{kNoProcess};
  SendQueue queue_;
  FrameDecoder decoder_;
};

}  // namespace abdkit::net

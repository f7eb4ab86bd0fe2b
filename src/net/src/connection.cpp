#include "abdkit/net/connection.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace abdkit::net {

namespace {

/// Upper bound on iovecs per sendmsg — far below IOV_MAX, and enough that
/// one syscall drains several segments' worth of coalesced frames.
constexpr int kMaxFlushIov = 64;

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: latency tuning, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

// ---- Addresses --------------------------------------------------------------------

bool to_sockaddr(const Address& address, sockaddr_in& out) {
  std::memset(&out, 0, sizeof out);
  out.sin_family = AF_INET;
  out.sin_port = htons(address.port);
  return ::inet_pton(AF_INET, address.host.c_str(), &out.sin_addr) == 1;
}

bool parse_address(const std::string& text, Address& out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) return false;
  Address parsed;
  parsed.host = text.substr(0, colon);
  unsigned long port = 0;
  for (const char c : text.substr(colon + 1)) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) return false;
  }
  parsed.port = static_cast<std::uint16_t>(port);
  sockaddr_in probe{};
  if (!to_sockaddr(parsed, probe)) return false;
  out = std::move(parsed);
  return true;
}

bool parse_address_list(const std::string& text, std::vector<Address>& out) {
  out.clear();
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    Address address;
    if (!parse_address(text.substr(begin, end - begin), address)) return false;
    out.push_back(std::move(address));
    begin = end + 1;
    if (end == text.size()) break;
  }
  return !out.empty();
}

// ---- Connection -------------------------------------------------------------------

Connection::Connection(Reactor& reactor, Callbacks callbacks, std::size_t max_send_buffer,
                       std::uint32_t max_frame_length, Metrics* metrics)
    : reactor_{&reactor},
      callbacks_{std::move(callbacks)},
      metrics_{metrics},
      max_frame_length_{max_frame_length},
      queue_{max_send_buffer},
      decoder_{max_frame_length} {}

Connection::~Connection() { close(); }

void Connection::count(std::string_view name, std::uint64_t delta) {
  if (metrics_ != nullptr) metrics_->add(name, delta);
}

void Connection::dial(const Address& to) {
  sockaddr_in addr{};
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0 || !to_sockaddr(to, addr) ||
      (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 &&
       errno != EINPROGRESS)) {
    if (fd >= 0) ::close(fd);
    fail(Closed::kDialFailed);
    return;
  }
  set_nodelay(fd);
  // Even a dial that completed at once is reported by the first EPOLLOUT
  // edge, so there is one completion path.
  open(fd, State::kConnecting);
}

void Connection::adopt(int fd) {
  set_nodelay(fd);
  open(fd, State::kOpen);
}

void Connection::open(int fd, State state) {
  fd_ = fd;
  state_ = state;
  decoder_ = FrameDecoder{max_frame_length_};  // a new stream
  slot_ = reactor_->add_fd(fd, [this](std::uint32_t events) { on_event(events); });
}

void Connection::close() {
  if (fd_ >= 0) {
    reactor_->remove(slot_);
    ::close(fd_);
    fd_ = -1;
  }
  state_ = State::kClosed;
  flush_pending_ = false;
  write_blocked_ = false;
  queue_.clear();
}

void Connection::fail(Closed why) {
  if (why != Closed::kDialFailed) count("net.disconnects");
  // Whatever was queued counts as in-flight loss — the crash-fault model.
  if (!queue_.empty()) count("net.dropped_bytes", queue_.queued_bytes());
  close();
  callbacks_.on_closed(why);
}

bool Connection::enqueue(ProcessId src, ProcessId dst, const Payload& payload,
                         wire::WireFormat format) {
  // Encode straight into the tail segment; commit() rolls the frame back
  // if it would breach the cap.
  std::vector<std::byte>& segment = queue_.tail();
  const std::size_t mark = segment.size();
  encode_frame_into(segment, src, dst, payload, format);
  return queue_.commit(mark);
}

bool Connection::enqueue_bytes(std::span<const std::byte> frames) {
  std::vector<std::byte>& segment = queue_.tail();
  const std::size_t mark = segment.size();
  segment.insert(segment.end(), frames.begin(), frames.end());
  return queue_.commit(mark);
}

bool Connection::mark_dirty() noexcept {
  // A connection still dialing flushes when the dial completes.
  if (state_ != State::kOpen || flush_pending_) return false;
  flush_pending_ = true;
  return true;
}

void Connection::flush_dirty(std::vector<Connection*>& dirty) {
  for (Connection* conn : dirty) {
    if (!conn->flush_pending_) continue;
    conn->flush_pending_ = false;
    if (!conn->write_blocked_) conn->flush();  // else: on the next EPOLLOUT edge
  }
  dirty.clear();
}

void Connection::on_event(std::uint32_t events) {
  if (state_ == State::kConnecting) {
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      fail(Closed::kDialFailed);
      return;
    }
    if ((events & EPOLLOUT) == 0) return;
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      fail(Closed::kDialFailed);
      return;
    }
    state_ = State::kOpen;
    callbacks_.on_connected();
    // Fall through: the EPOLLOUT edge flushes what queued while dialing.
  }
  if ((events & EPOLLIN) != 0) {
    std::byte chunk[16384];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n > 0) {
        count("net.read_calls");
        count("net.bytes_in", static_cast<std::uint64_t>(n));
        decoder_.feed(std::span{chunk, static_cast<std::size_t>(n)});
        Frame frame;
        for (;;) {
          const FrameDecoder::Status status = decoder_.next(frame);
          if (status == FrameDecoder::Status::kFrame) {
            last_src_ = frame.src;
            callbacks_.on_frame(frame);
            if (fd_ < 0) return;  // the owner closed it
            continue;
          }
          if (status == FrameDecoder::Status::kError) {
            fail(Closed::kCorrupt);
            return;
          }
          break;  // kNeedMore
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fail(Closed::kDisconnected);  // EOF or hard error: the peer is gone
      return;
    }
  }
  if ((events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0) {
    fail(Closed::kDisconnected);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    write_blocked_ = false;
    flush();
  }
}

void Connection::flush() {
  while (!queue_.empty()) {
    struct iovec iov[kMaxFlushIov];
    const int iov_n = queue_.gather(iov, kMaxFlushIov);
    // sendmsg(MSG_NOSIGNAL), not writev: a peer process can die between the
    // readiness check and this write, and a SIGPIPE would kill the whole
    // process instead of surfacing EPIPE here.
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_n);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Consumed segments are released inside the queue at once — a
      // partial write never pins the already-written prefix.
      queue_.consume(static_cast<std::size_t>(n));
      count("net.bytes_out", static_cast<std::uint64_t>(n));
      count("net.writev_calls");
      count("net.writev_iovecs", static_cast<std::uint64_t>(iov_n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      write_blocked_ = true;
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    fail(Closed::kDisconnected);
    return;
  }
}

}  // namespace abdkit::net

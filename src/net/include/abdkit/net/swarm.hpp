// ClientSwarm — thousands of concurrent protocol clients in one process.
//
// bench_c1 needs 1k–10k concurrent pipelined clients dialing a replica
// group. One net::Transport per client would mean thousands of threads and
// epoll instances; the swarm instead multiplexes many lightweight clients
// onto a few shard reactors (net/reactor.hpp):
//
//   * Each shard is one reactor thread owning clients round-robined by
//     index. A client is a full abd::Node actor with its own ProcessId,
//     its own net::Connection to each replica (so the group-side
//     connection count scales as clients x n — the quantity bench_c1
//     sweeps), and a Context whose timers live on the shard's wheel.
//   * Replies ride back on the connection that carried the request, so the
//     swarm listens nowhere, the replicas need only their own n-entry
//     table, and the swarm holds exactly clients x n sockets.
//   * Connect latency (dial start to established, which includes the
//     replica's accept backlog delay — the acceptance-latency signal) and
//     per-op latency are recorded in lock-free histograms.
//
// A client actor is touched only by its shard's thread; the swarm-level
// aggregates (ops, messages, in-flight) are relaxed atomics. The protocol
// cannot tell a swarm client from a Transport-hosted one: same Actor
// surface, same frames, same quorum logic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/common/transport.hpp"
#include "abdkit/net/connection.hpp"
#include "abdkit/net/reactor.hpp"
#include "abdkit/wire/codec.hpp"

namespace abdkit::net {

struct SwarmOptions {
  /// Concurrent clients (each with a distinct ProcessId >= world_size).
  std::size_t clients{1};
  /// Shard reactor threads the clients are multiplexed onto.
  std::size_t shards{1};
  /// Reads each client keeps in flight (closed-loop pipelining window).
  std::size_t pipeline_depth{4};
  /// The replica group's n; client ids start at world_size.
  std::size_t world_size{0};
  /// Protocol options for every client's abd::Node (quorums is required).
  abd::NodeOptions node;
  wire::WireFormat wire_format{wire::WireFormat::kStandard};
  std::size_t max_send_buffer{4u << 20};
  std::uint32_t max_frame_length{1u << 20};
  /// Wait bound for all clients x n dials to establish in start().
  Duration connect_timeout{std::chrono::seconds{30}};
  /// Optional registry: swarm.ops / swarm.connects counters mirror the
  /// RunStats so the bench's metrics dump sees the swarm too.
  Metrics* metrics{nullptr};
};

class ClientSwarm {
 public:
  explicit ClientSwarm(SwarmOptions options);
  ~ClientSwarm();

  ClientSwarm(const ClientSwarm&) = delete;
  ClientSwarm& operator=(const ClientSwarm&) = delete;

  /// Install the replica table (at least world_size entries; later ones
  /// are ignored), start the shard threads, and dial every client's n
  /// replica connections. Blocks until all clients x n are established or
  /// connect_timeout passes; false on timeout (stats still valid).
  [[nodiscard]] bool start(std::vector<Address> table);

  struct RunStats {
    std::uint64_t ops{0};             ///< completed operations
    std::uint64_t stragglers{0};      ///< in flight when the drain gave up
    double seconds{0};                ///< measured wall-clock window
    std::uint64_t p50_us{0};
    std::uint64_t p99_us{0};
    std::uint64_t p999_us{0};
    std::uint64_t max_us{0};
    /// Protocol requests sent, excluding retransmissions (E1 accounting).
    std::uint64_t messages{0};
    std::uint64_t rounds{0};          ///< quorum rounds across all ops
    std::uint64_t connects{0};        ///< established outbound connections
    std::uint64_t connect_p50_us{0};
    std::uint64_t connect_p99_us{0};
    std::uint64_t connect_max_us{0};
  };

  /// Closed-loop pipelined reads: every client keeps pipeline_depth reads
  /// in flight (each on its own object) for `duration`, then drains.
  [[nodiscard]] RunStats run_reads(Duration duration);

  /// Established client->replica connections right now.
  [[nodiscard]] std::size_t connections() const noexcept {
    return connected_.load(std::memory_order_relaxed);
  }

  void stop();

 private:
  struct Shard;
  class SwarmContext;

  /// One simulated client, owned by exactly one shard's thread.
  struct SwarmClient {
    ProcessId id{kNoProcess};
    Shard* shard{nullptr};
    std::unique_ptr<abd::Node> node;
    std::unique_ptr<SwarmContext> ctx;
    std::vector<std::unique_ptr<Connection>> conns;  ///< index = replica id
    std::vector<TimePoint> dialed_at;                ///< index = replica id
  };

  struct Shard {
    std::unique_ptr<Reactor> reactor;  ///< first: outlives the connections
    std::thread thread;
    std::vector<SwarmClient*> clients;
    /// Connections with frames enqueued since the last flush pass.
    std::vector<Connection*> dirty;
  };

  [[nodiscard]] TimePoint now() const;
  void client_send(SwarmClient& client, ProcessId to, PayloadPtr payload);
  void dial(SwarmClient& client, std::size_t replica);
  void conn_closed(SwarmClient& client, std::size_t replica, Connection::Closed why);
  void dispatch(SwarmClient& client, const Frame& frame);
  void issue(SwarmClient& client);
  void count(std::string_view name, std::uint64_t delta = 1);

  SwarmOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<SwarmClient>> clients_;  ///< after shards_: destroyed first
  std::vector<Address> table_;
  std::chrono::steady_clock::time_point epoch_;
  bool started_{false};
  bool stopped_{false};

  std::atomic<std::size_t> connected_{0};
  std::atomic<bool> running_{false};   ///< completions re-issue while true
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> rounds_{0};
  LatencyHistogram op_hist_;
  LatencyHistogram connect_hist_;
};

}  // namespace abdkit::net

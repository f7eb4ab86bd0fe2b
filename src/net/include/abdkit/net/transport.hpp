// Real TCP deployment of the same Actor protocols: one process per replica,
// frames over sockets, an edge-triggered epoll multi-reactor per process.
//
// This is the third rung of the runtime ladder (DESIGN.md):
//
//   sim::World        — deterministic discrete-event simulation
//   runtime::Cluster  — threads in one address space, in-memory channels
//   net::Transport    — separate OS processes, length-prefixed frames on TCP
//
// A Transport hosts exactly ONE actor and gives it the same Context surface
// the other two environments provide, so protocol code runs unchanged. The
// asynchronous-network model maps onto TCP as follows:
//
//   * Every channel is a bidirectional net::Connection. Each process dials
//     every replica eagerly and redials it forever with jittered backoff;
//     while a replica is unreachable, frames queued for it are dropped — to
//     the protocol a crashed replica is exactly the paper's crash fault:
//     silent, with messages to it lost. (Run clients with a
//     retransmit_interval for liveness under crashes, as with the lossy-link
//     simulator extension.)
//   * Nobody dials a client-only process. A process answers a client id on
//     the connection that client's frames arrive on, learning the route
//     from the src field every frame carries; the newest connection to
//     deliver a frame from an id owns its route. A reply with no live
//     route is dropped and counted in net.sends_dropped, and the client
//     retransmits (PROTOCOL.md §14).
//   * Delivery is asynchronous and, across peers, unordered — quorum logic
//     must not (and does not) assume FIFO between processes.
//   * The actor executes single-threadedly on the HOME reactor's thread;
//     post() is the only sanctioned way to poke it from outside, mirroring
//     runtime::Cluster::post.
//
// Event-loop architecture (details in DESIGN.md "Epoll multi-reactor"): the
// transport runs `reactors` edge-triggered epoll loops (net/reactor.hpp),
// each with its own thread, timer wheel, and eventfd-woken post queue.
// Reactor 0 is the HOME reactor: it runs the actor, the actor's timers, the
// replica-mesh connections, fault injection, the observer hook, the route
// table and the acceptor. Accepted connections are round-robined across ALL
// reactors; the owning reactor reads and decodes, then batch-posts decoded
// frames to home for actor delivery (per-connection FIFO is preserved: one
// connection is read by one thread, and posts are FIFO). A reply to a
// client encodes on the home thread and is handed, in per-cycle batches, to
// the reactor that owns the client's connection. With reactors == 1 every
// hand-off degenerates to a direct call on the single loop thread. Reactor
// count is transport-level only: the protocol cannot observe it
// (PROTOCOL.md §12 note).
//
// The address table lists the paper's n replicas at [0, world_size)
// (broadcast targets; Context::world_size()). Client-only processes take
// ids >= world_size, hold no quorum slot, need no table entry and need not
// listen; entries beyond world_size are accepted and ignored.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "abdkit/common/message.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/common/rng.hpp"
#include "abdkit/common/transport.hpp"
#include "abdkit/net/connection.hpp"
#include "abdkit/net/reactor.hpp"
#include "abdkit/runtime/cluster.hpp"
#include "abdkit/wire/codec.hpp"

namespace abdkit::net {

/// Decorrelated-jitter reconnect backoff (AWS architecture-blog flavor):
/// draws uniformly from [floor, min(cap, 3 * previous)], treating a
/// non-positive `previous` as `floor`. Successive failures still grow the
/// expected wait geometrically, but two processes sharing a failure instant
/// diverge after one draw instead of redialing in lockstep forever.
[[nodiscard]] Duration next_reconnect_backoff(Duration previous, Duration floor,
                                              Duration cap, Rng& rng);

/// Fault-injection plan for chaos testing, applied on the SEND side: each
/// outbound frame is dropped with `drop_probability`, and frames to a
/// `blocked` destination are always dropped (a one-directional partition —
/// install mirror-image plans on both endpoints for a full partition).
/// Self-delivery is never faulted: a partition separates processes, not a
/// process from itself. Dropped frames count as net.faults_dropped and are
/// otherwise indistinguishable from network loss, which is exactly the
/// asynchronous model's failure shape. Install via Transport::set_faults;
/// an empty plan clears all faults.
struct FaultPlan {
  /// Probability in [0, 1] that any eligible outbound frame is dropped.
  double drop_probability{0.0};
  /// Seed for the drop stream, mixed with `self` so identically configured
  /// processes fault independently yet deterministically.
  std::uint64_t seed{0};
  /// Destinations to which nothing is delivered while the plan is active.
  std::vector<ProcessId> blocked;

  [[nodiscard]] bool active() const noexcept {
    return drop_probability > 0.0 || !blocked.empty();
  }
};

struct TransportOptions {
  /// This process's id (its index in the address table).
  ProcessId self{kNoProcess};
  /// The paper's n: processes [0, world_size) are replicas. Client-only
  /// processes take ids >= world_size.
  std::size_t world_size{0};
  /// Event-loop threads (home reactor + reactors-1 satellite reactors).
  /// 1 (the default) reproduces the old single-loop transport exactly;
  /// replicas serving large client fan-in want one per core.
  std::size_t reactors{1};
  /// listen(2) backlog; -1 means SOMAXCONN. The old transport hardcoded 64,
  /// which overflows instantly when a thousand-client swarm dials at once
  /// (overflowed SYNs stall for seconds in retry).
  int listen_backlog{-1};
  /// Modeled per-inbound-frame service time, charged on the reactor that
  /// owns the connection (accumulated and slept in >= 1 ms chunks). Zero —
  /// the default — disables the model. bench_c1 uses it to measure reactor-
  /// sharding capacity on hosts with fewer cores than reactors
  /// (EXPERIMENTS.md C1): real per-frame CPU work scales out with reactor
  /// count only when there are cores to run them; modeled service time
  /// scales the same way without needing the cores.
  Duration inbound_service_time{};
  /// Reconnect backoff bounds: after a failed dial the next attempt waits
  /// the current backoff, which grows by decorrelated jitter — uniform in
  /// [min, 3 * previous], capped at max — until a connection succeeds (see
  /// next_reconnect_backoff). The jitter breaks redial lockstep: without
  /// it, every replica that lost the same peer retries on the identical
  /// doubling schedule and their dials collide forever.
  Duration reconnect_min{std::chrono::milliseconds{20}};
  Duration reconnect_max{std::chrono::seconds{1}};
  /// Seed for the reconnect jitter stream, mixed with `self` so each
  /// process jitters independently even when configured identically. Any
  /// fixed value gives a deterministic redial schedule (tests rely on it).
  std::uint64_t reconnect_jitter_seed{0};
  /// Codec envelope for outgoing frames (wire::WireFormat::kCompact = the
  /// two-bit-messages constant-size control field). Receiving auto-detects,
  /// so mixed-format clusters interoperate.
  wire::WireFormat wire_format{wire::WireFormat::kStandard};
  /// Per-connection cap on bytes queued while it is down or congested;
  /// frames beyond it are dropped (and counted), like any lost message.
  std::size_t max_send_buffer{4u << 20};
  /// Frame length cap handed to the receive-side decoders.
  std::uint32_t max_frame_length{1u << 20};
  /// Optional metrics registry (not owned; must outlive the transport).
  /// Net-layer counters use the "net." prefix:
  ///   net.connect_attempts, net.connects, net.reconnects, net.accepts,
  ///   net.accept_errors, net.disconnects, net.bytes_in, net.bytes_out,
  ///   net.frames_in, net.frames_out, net.frame_decode_errors,
  ///   net.sends_dropped, net.dropped_bytes, net.misrouted_frames,
  ///   net.faults_dropped (frames eaten by an installed FaultPlan).
  /// Coalescing diagnostics (frames_out / writev_calls is the outbound
  /// frames-per-syscall factor; frames_in / read_calls the inbound one):
  ///   net.writev_calls, net.writev_iovecs, net.read_calls.
  /// Reactor diagnostics, published when the transport stops:
  ///   net.epoll_waits, net.timer_cascades, net.reactor_posts,
  ///   net.reactor.<i>.events.
  Metrics* metrics{nullptr};
  /// Optional ClusterEvent-style observer (same type as runtime::Cluster's
  /// hook, so trace::ClusterRecorder works against either backend). Invoked
  /// from the HOME reactor thread only. (One narrow exception is absent,
  /// not moved: a reply handed to another reactor and dropped there — its
  /// connection's cap breached, or the connection gone — is counted in
  /// net.sends_dropped but emits no kDrop event. With reactors == 1 every
  /// drop is observed.)
  runtime::ClusterObserver observer;
};

class Transport {
 public:
  /// The transport owns its actor; `options.metrics`, if set, is borrowed.
  Transport(TransportOptions options, std::unique_ptr<Actor> actor);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Bind and listen on `listen` (normally the self entry of the address
  /// table; port 0 picks an ephemeral port). Returns the bound port. A
  /// replica must call it once, before start(); a client-only process may,
  /// but nobody dials it. Throws std::runtime_error on failure.
  std::uint16_t bind(const Address& listen);

  /// Install the address table (index = ProcessId; at least world_size
  /// entries), start the reactor threads, and run the actor's on_start on
  /// the home reactor. Every replica but self is dialed eagerly.
  void start(std::vector<Address> peers);

  /// Stops every reactor and joins the threads (idempotent). After stop()
  /// the process is silent — to its peers, indistinguishable from a crash.
  void stop();

  /// Run `fn` on the home reactor thread — the only sanctioned way to
  /// invoke the hosted actor from outside.
  void post(std::function<void()> fn);

  /// Install (or, with a default-constructed plan, clear) a fault-injection
  /// plan. Thread-safe: the plan is handed to the home reactor via post(),
  /// so it takes effect at the next cycle and never races the send path.
  /// See FaultPlan for semantics.
  void set_faults(FaultPlan plan);

  [[nodiscard]] Actor& hosted_actor() noexcept { return *actor_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return listen_port_; }
  [[nodiscard]] ProcessId self() const noexcept { return options_.self; }
  [[nodiscard]] std::size_t reactor_count() const noexcept { return domains_.size(); }

  /// Nanoseconds since construction (the Context::now clock, shared by all
  /// reactors).
  [[nodiscard]] TimePoint now() const;

  /// Snapshot of the outbound queue to one replica-mesh peer (test and
  /// diagnostic visibility). Home-thread state: call only from within
  /// post(), like the actor.
  struct SendQueueStats {
    std::size_t queued_bytes{0};
    std::size_t resident_bytes{0};
    std::uint64_t frames_committed{0};
  };
  [[nodiscard]] SendQueueStats send_queue_stats(ProcessId peer) const;

 private:
  friend class NetContext;

  /// A replica-mesh peer, owned by home: dialed eagerly, redialed forever.
  struct Peer {
    std::unique_ptr<Connection> conn;  ///< null for self
    Duration backoff{};
    bool ever_connected{false};
  };

  /// Where a client id's replies go: an accepted connection, named by its
  /// transport-unique id, and the reactor that owns it.
  struct Route {
    std::size_t domain{0};
    std::uint64_t conn{0};
  };

  /// An accepted connection's event bound for home: a decoded frame or,
  /// with a null payload, the connection's close, which releases the route
  /// of frame.src.
  struct Inbound {
    std::uint64_t conn{0};
    Frame frame;
  };

  /// Per-reactor state. domains_[0] is home. Mutable fields are owned by
  /// that reactor's thread; the Reactor itself has its own cross-thread
  /// discipline (post()).
  struct Domain {
    std::unique_ptr<Reactor> reactor;  ///< first: outlives the connections
    std::thread thread;
    std::size_t index{0};
    /// Open accepted connections by id.
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> accepted;
    /// Connections closed this cycle, destroyed after its flush pass (the
    /// dirty list may still point at them).
    std::vector<std::unique_ptr<Connection>> closed;
    /// Connections with frames enqueued since the last flush pass.
    std::vector<Connection*> dirty;
    /// Satellite reactors: this cycle's events for home, posted in one batch.
    std::vector<Inbound> inbound;
    /// Modeled service-time debt, slept in >= 1 ms chunks.
    Duration service_debt{};
  };

  /// Encoded replies staged on the home thread for a client whose
  /// connection another reactor owns; handed over in one post per cycle.
  struct StagedBytes {
    std::vector<std::byte> bytes;
    std::uint64_t frames{0};
    bool staged_dirty{false};  ///< in staged_dirty_ already
  };

  // Context surface (called from the home thread only).
  void send(ProcessId to, PayloadPtr payload);
  void broadcast(PayloadPtr payload);
  TimerId set_timer(Duration delay, TimerCallback cb);
  void cancel_timer(TimerId id);

  [[nodiscard]] Domain& home() noexcept { return *domains_.front(); }
  [[nodiscard]] std::unique_ptr<Connection> make_connection(Domain& domain,
                                                            Connection::Callbacks callbacks);

  // Replica mesh (home thread).
  void dial(ProcessId peer);
  void peer_closed(ProcessId peer, const Connection& conn, Connection::Closed why);

  // Accepted connections (owner reactor's thread).
  void accept_ready();
  void pause_accepting();
  void adopt(Domain& domain, int fd, std::uint64_t id);
  void accepted_frame(Domain& domain, std::uint64_t id, Frame& frame);
  void accepted_closed(Domain& domain, std::uint64_t id, Connection::Closed why);
  void enqueue_staged(Domain& domain, std::uint64_t conn,
                      const std::vector<std::byte>& bytes, std::uint64_t frames);

  // Home thread: route bookkeeping and delivery to the actor.
  void received(const Route& via, const Frame& frame);
  void deliver(const Frame& frame);

  // Per-cycle hooks.
  void before_wait(Domain& domain);
  void drain_self_queue();

  void count(std::string_view name, std::uint64_t delta = 1);
  void count_corrupt(const Connection& conn);
  void observe(runtime::ClusterEvent::Kind kind, ProcessId from, ProcessId to,
               const PayloadPtr& payload = nullptr, TimerId timer = 0);
  void publish_reactor_stats();
  void close_all();

  TransportOptions options_;
  // Fault injection (home thread only; installed via set_faults).
  FaultPlan faults_;
  Rng fault_rng_{0};
  Rng reconnect_rng_;  ///< home: jitter for the mesh redials
  std::unique_ptr<Actor> actor_;
  std::unique_ptr<class NetContext> context_;
  std::vector<Address> table_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<Peer> mesh_;  ///< index = replica id; after domains_, so destroyed first
  int listen_fd_{-1};
  std::uint16_t listen_port_{0};
  std::uint32_t listen_slot_{0};
  bool accept_paused_{false};
  std::size_t next_inbound_domain_{0};  ///< acceptor round-robin cursor
  std::uint64_t next_conn_id_{1};       ///< acceptor: accepted-connection ids
  bool started_{false};
  bool stopped_{false};

  std::chrono::steady_clock::time_point epoch_;

  // Home-thread state.
  std::deque<PayloadPtr> self_queue_;
  std::unordered_map<ProcessId, Route> routes_;  ///< client id -> reply route
  std::unordered_map<ProcessId, StagedBytes> staged_;
  std::vector<ProcessId> staged_dirty_;
};

}  // namespace abdkit::net

#include "abdkit/net/transport.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "abdkit/common/backoff.hpp"
#include "abdkit/common/log.hpp"

namespace abdkit::net {

namespace {

using runtime::ClusterEvent;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error{what + ": " + std::strerror(errno)};
}

/// How long the acceptor stays paused after EMFILE/ENFILE before retrying:
/// long enough for fds to free up, short enough that a transient spike does
/// not strand dialing clients in the backlog.
constexpr auto kAcceptPause = std::chrono::milliseconds{100};

std::uint64_t jitter_seed(const TransportOptions& options) noexcept {
  // Mix self into the stream so identically-configured processes still draw
  // independent jitter (the whole point of having any).
  std::uint64_t sm = options.reconnect_jitter_seed ^
                     (0x9e3779b97f4a7c15ULL * (1 + std::uint64_t{options.self}));
  return splitmix64(sm);
}

}  // namespace

// ---- Context adapter --------------------------------------------------------------

/// The Context handed to the hosted actor; every call forwards to the
/// transport and runs on the home reactor thread.
class NetContext final : public Context {
 public:
  explicit NetContext(Transport& transport) noexcept : transport_{&transport} {}

  [[nodiscard]] ProcessId self() const noexcept override {
    return transport_->options_.self;
  }
  [[nodiscard]] std::size_t world_size() const noexcept override {
    return transport_->options_.world_size;
  }
  void send(ProcessId to, PayloadPtr payload) override {
    transport_->send(to, std::move(payload));
  }
  void broadcast(PayloadPtr payload) override {
    transport_->broadcast(std::move(payload));
  }
  TimerId set_timer(Duration delay, TimerCallback cb) override {
    return transport_->set_timer(delay, std::move(cb));
  }
  void cancel_timer(TimerId id) override { transport_->cancel_timer(id); }
  [[nodiscard]] TimePoint now() const noexcept override { return transport_->now(); }

 private:
  Transport* transport_;
};

// ---- Lifecycle --------------------------------------------------------------------

Duration next_reconnect_backoff(Duration previous, Duration floor, Duration cap,
                                Rng& rng) {
  // The jitter policy itself lives in common (next_decorrelated_backoff) so
  // reconfig retries and reconnect dials share one audited implementation.
  return next_decorrelated_backoff(previous, floor, cap, rng);
}

Transport::Transport(TransportOptions options, std::unique_ptr<Actor> actor)
    : options_{std::move(options)},
      reconnect_rng_{jitter_seed(options_)},
      actor_{std::move(actor)},
      context_{std::make_unique<NetContext>(*this)},
      epoch_{std::chrono::steady_clock::now()} {
  if (actor_ == nullptr) throw std::invalid_argument{"Transport: null actor"};
  if (options_.world_size == 0) throw std::invalid_argument{"Transport: world_size 0"};
  const std::size_t reactors = std::max<std::size_t>(1, options_.reactors);
  domains_.reserve(reactors);
  for (std::size_t i = 0; i < reactors; ++i) {
    auto domain = std::make_unique<Domain>();
    domain->index = i;
    domain->reactor = std::make_unique<Reactor>([this] { return now(); });
    Domain* raw = domain.get();
    domain->reactor->set_before_wait([this, raw] { before_wait(*raw); });
    domains_.push_back(std::move(domain));
  }
}

Transport::~Transport() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);  // bound but never started
}

std::uint16_t Transport::bind(const Address& listen) {
  if (listen_fd_ >= 0) throw std::logic_error{"Transport: bind called twice"};
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  if (!to_sockaddr(listen, addr)) {
    ::close(fd);
    throw std::invalid_argument{"Transport: bad listen address " + listen.host};
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("bind " + listen.host + ":" + std::to_string(listen.port));
  }
  const int backlog = options_.listen_backlog < 0 ? SOMAXCONN : options_.listen_backlog;
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  listen_fd_ = fd;
  listen_port_ = ntohs(bound.sin_port);
  return listen_port_;
}

void Transport::start(std::vector<Address> peers) {
  if (started_) throw std::logic_error{"Transport: start called twice"};
  if (options_.self < options_.world_size && listen_fd_ < 0) {
    throw std::logic_error{"Transport: replica start before bind"};
  }
  if (peers.size() < options_.world_size) {
    throw std::invalid_argument{"Transport: address table too small"};
  }
  table_ = std::move(peers);
  mesh_.resize(options_.world_size);
  for (ProcessId p = 0; p < options_.world_size; ++p) {
    if (p == options_.self) continue;
    Peer& peer = mesh_[p];
    peer.conn = make_connection(
        home(), {.on_connected =
                     [this, &peer] {
                       count(peer.ever_connected ? "net.reconnects" : "net.connects");
                       peer.ever_connected = true;
                       peer.backoff = Duration::zero();
                     },
                 .on_frame = [this](Frame& frame) { deliver(frame); },
                 .on_closed = [this, p](Connection::Closed why) {
                   peer_closed(p, *mesh_[p].conn, why);
                 }});
  }

  // Pre-thread registration is safe: no loop is running yet. Level-
  // triggered, so pausing/resuming the acceptor needs no re-arm protocol.
  if (listen_fd_ >= 0) {
    listen_slot_ = home().reactor->add_fd(
        listen_fd_, [this](std::uint32_t) { accept_ready(); }, /*edge_triggered=*/false);
  }

  // First thing the home loop does: join the replica mesh, then hand the
  // actor its Context.
  home().reactor->post([this] {
    for (ProcessId p = 0; p < options_.world_size; ++p) {
      if (p != options_.self) dial(p);
    }
    actor_->on_start(*context_);
  });

  started_ = true;
  for (auto& domain : domains_) {
    Reactor* reactor = domain->reactor.get();
    domain->thread = std::thread([reactor] { reactor->run(); });
  }
}

void Transport::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& domain : domains_) domain->reactor->stop();
  for (auto& domain : domains_) {
    if (domain->thread.joinable()) domain->thread.join();
  }
  publish_reactor_stats();
  close_all();
}

void Transport::close_all() {
  mesh_.clear();
  for (auto& domain : domains_) {
    domain->dirty.clear();
    domain->accepted.clear();
    domain->closed.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void Transport::post(std::function<void()> fn) {
  home().reactor->post([this, fn = std::move(fn)] {
    observe(ClusterEvent::Kind::kPost, options_.self, options_.self);
    fn();
  });
}

void Transport::set_faults(FaultPlan plan) {
  post([this, plan = std::move(plan)]() mutable {
    faults_ = std::move(plan);
    // Re-seeded per install: with a fixed plan seed the drop pattern for a
    // chaos window is reproducible run to run.
    fault_rng_ = Rng{faults_.seed ^
                     (0xfa017ab1ecafeULL * (1 + static_cast<std::uint64_t>(options_.self)))};
  });
}

TimePoint Transport::now() const {
  return std::chrono::duration_cast<Duration>(std::chrono::steady_clock::now() - epoch_);
}

Transport::SendQueueStats Transport::send_queue_stats(ProcessId peer) const {
  SendQueueStats stats;
  if (peer < mesh_.size() && mesh_[peer].conn != nullptr) {
    const SendQueue& queue = mesh_[peer].conn->queue();
    stats.queued_bytes = queue.queued_bytes();
    stats.resident_bytes = queue.resident_bytes();
    stats.frames_committed = queue.frames_committed();
  }
  return stats;
}

std::unique_ptr<Connection> Transport::make_connection(Domain& domain,
                                                       Connection::Callbacks callbacks) {
  return std::make_unique<Connection>(*domain.reactor, std::move(callbacks),
                                      options_.max_send_buffer, options_.max_frame_length,
                                      options_.metrics);
}

// ---- Metrics / tracing ------------------------------------------------------------

void Transport::count(std::string_view name, std::uint64_t delta) {
  if (options_.metrics != nullptr) options_.metrics->add(name, delta);
}

void Transport::count_corrupt(const Connection& conn) {
  ABDKIT_LOG(LogLevel::kWarn, "net", "p", options_.self,
             ": closed a corrupt stream: ", conn.decode_error());
  count("net.frame_decode_errors");
}

void Transport::observe(ClusterEvent::Kind kind, ProcessId from, ProcessId to,
                        const PayloadPtr& payload, TimerId timer) {
  if (!options_.observer) return;
  ClusterEvent event;
  event.kind = kind;
  event.at = now();
  event.from = from;
  event.to = to;
  event.payload = payload;
  event.timer = timer;
  options_.observer(event);
}

void Transport::publish_reactor_stats() {
  if (options_.metrics == nullptr) return;
  std::uint64_t waits = 0;
  std::uint64_t cascades = 0;
  std::uint64_t posts = 0;
  for (const auto& domain : domains_) {
    const Reactor::Stats stats = domain->reactor->stats();
    waits += stats.epoll_waits;
    cascades += stats.timer_cascades;
    posts += stats.posts;
    count("net.reactor." + std::to_string(domain->index) + ".events", stats.events);
  }
  count("net.epoll_waits", waits);
  count("net.timer_cascades", cascades);
  count("net.reactor_posts", posts);
}

// ---- Context surface (home thread) ------------------------------------------------

void Transport::send(ProcessId to, PayloadPtr payload) {
  observe(ClusterEvent::Kind::kSend, options_.self, to, payload);
  if (to == options_.self) {
    self_queue_.push_back(std::move(payload));
    return;
  }
  if (faults_.active()) {
    // Chaos hook (see FaultPlan): eat the frame before it reaches a queue,
    // exactly where real network loss would. Blocked destinations model a
    // partition; the probabilistic stream models a lossy link.
    if (std::find(faults_.blocked.begin(), faults_.blocked.end(), to) !=
            faults_.blocked.end() ||
        (faults_.drop_probability > 0.0 && fault_rng_.chance(faults_.drop_probability))) {
      count("net.faults_dropped");
      observe(ClusterEvent::Kind::kDrop, options_.self, to, payload);
      return;
    }
  }
  Connection* conn = nullptr;
  if (to < options_.world_size) {
    conn = mesh_[to].conn.get();
  } else if (const auto route = routes_.find(to); route != routes_.end()) {
    if (route->second.domain != 0) {
      // The client's connection lives on another reactor: encode here (home
      // pays the cheap encode, the owner pays the syscalls) and stage the
      // bytes; before_wait hands them over in one post per cycle.
      StagedBytes& staged = staged_[to];
      encode_frame_into(staged.bytes, options_.self, to, *payload, options_.wire_format);
      ++staged.frames;
      if (!staged.staged_dirty) {
        staged.staged_dirty = true;
        staged_dirty_.push_back(to);
      }
      count("net.frames_out");
      return;
    }
    const auto it = home().accepted.find(route->second.conn);
    if (it != home().accepted.end()) conn = it->second.get();
  }
  if (conn == nullptr ||
      !conn->enqueue(options_.self, to, *payload, options_.wire_format)) {
    // No route to the client (it never wrote, or its connection closed), or
    // the connection's byte cap is full.
    count("net.sends_dropped");
    observe(ClusterEvent::Kind::kDrop, options_.self, to, payload);
    return;
  }
  count("net.frames_out");
  // Deferred: the before-wait flush pass runs one coalesced sendmsg per
  // connection per cycle, so a burst of sends (a broadcast, pipelined ops)
  // shares syscalls instead of paying one write(2) per frame.
  if (conn->mark_dirty()) home().dirty.push_back(conn);
}

void Transport::broadcast(PayloadPtr payload) {
  for (ProcessId p = 0; p < options_.world_size; ++p) send(p, payload);
}

TimerId Transport::set_timer(Duration delay, TimerCallback cb) {
  auto id_box = std::make_shared<TimerId>(0);
  const TimerId id = home().reactor->timers().add(
      now() + delay, [this, cb = std::move(cb), id_box] {
        observe(ClusterEvent::Kind::kTimerFire, options_.self, options_.self, nullptr,
                *id_box);
        cb();
      });
  *id_box = id;
  observe(ClusterEvent::Kind::kTimerSet, options_.self, options_.self, nullptr, id);
  return id;
}

void Transport::cancel_timer(TimerId id) {
  // The wheel drops the timer at once; a fired or unknown id is a no-op.
  if (home().reactor->timers().cancel(id)) {
    observe(ClusterEvent::Kind::kTimerCancel, options_.self, options_.self, nullptr, id);
  }
}

// ---- Replica mesh (home thread) ---------------------------------------------------

void Transport::dial(ProcessId peer) {
  count("net.connect_attempts");
  mesh_[peer].conn->dial(table_[peer]);
}

void Transport::peer_closed(ProcessId peer_id, const Connection& conn,
                            Connection::Closed why) {
  if (why == Connection::Closed::kCorrupt) count_corrupt(conn);
  // Keep redialing forever, so a restarted replica is readopted without
  // coordination. Decorrelated jitter, not bare doubling: replicas that lost
  // the same peer at the same instant must not redial in lockstep
  // (thundering herd on the restarted listener).
  Peer& peer = mesh_[peer_id];
  peer.backoff = next_reconnect_backoff(peer.backoff, options_.reconnect_min,
                                        options_.reconnect_max, reconnect_rng_);
  home().reactor->timers().add(now() + peer.backoff, [this, peer_id] {
    if (mesh_[peer_id].conn->closed()) dial(peer_id);
  });
}

// ---- Accepted connections ---------------------------------------------------------

void Transport::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      count("net.accept_errors");
      if (errno == EMFILE || errno == ENFILE || errno == ENOMEM || errno == ENOBUFS) {
        // Out of fds/buffers: stop accepting for a beat instead of spinning
        // on a level-triggered listen fd that will stay readable. Pending
        // dials wait in the (configurable) backlog.
        pause_accepting();
      }
      return;
    }
    count("net.accepts");
    // Round-robin shard: each accepted connection is owned (read, decoded,
    // written, service-modeled) by exactly one reactor for its lifetime.
    Domain& domain = *domains_[next_inbound_domain_];
    next_inbound_domain_ = (next_inbound_domain_ + 1) % domains_.size();
    const std::uint64_t id = next_conn_id_++;
    if (&domain == &home()) {
      adopt(domain, fd, id);
    } else {
      Domain* raw = &domain;
      domain.reactor->post([this, raw, fd, id] { adopt(*raw, fd, id); });
    }
  }
}

void Transport::pause_accepting() {
  if (accept_paused_) return;
  accept_paused_ = true;
  home().reactor->remove(listen_slot_);
  home().reactor->timers().add(now() + kAcceptPause, [this] {
    accept_paused_ = false;
    // Level-triggered: a non-empty backlog re-triggers immediately.
    listen_slot_ = home().reactor->add_fd(
        listen_fd_, [this](std::uint32_t) { accept_ready(); }, /*edge_triggered=*/false);
  });
}

void Transport::adopt(Domain& domain, int fd, std::uint64_t id) {
  Domain* raw = &domain;
  auto conn = make_connection(
      domain, {.on_frame = [this, raw, id](Frame& frame) {
                 accepted_frame(*raw, id, frame);
               },
               .on_closed = [this, raw, id](Connection::Closed why) {
                 accepted_closed(*raw, id, why);
               }});
  conn->adopt(fd);
  domain.accepted.emplace(id, std::move(conn));
}

void Transport::accepted_frame(Domain& domain, std::uint64_t id, Frame& frame) {
  if (&domain == &home()) {
    received(Route{0, id}, frame);
  } else {
    // Decoded off-thread; delivered to the actor in one home post per cycle
    // (before_wait ships the batch).
    domain.inbound.push_back(Inbound{id, std::move(frame)});
  }
  // Modeled per-frame service time (bench_c1), charged to the owning
  // reactor and slept in before_wait.
  domain.service_debt += options_.inbound_service_time;
}

void Transport::accepted_closed(Domain& domain, std::uint64_t id,
                                Connection::Closed why) {
  const auto it = domain.accepted.find(id);
  if (why == Connection::Closed::kCorrupt) count_corrupt(*it->second);
  // Release the route this connection carried, in order behind its frames.
  Frame closed;
  closed.src = it->second->last_src();
  if (&domain == &home()) {
    received(Route{0, id}, closed);
  } else {
    domain.inbound.push_back(Inbound{id, std::move(closed)});
  }
  domain.closed.push_back(std::move(it->second));
  domain.accepted.erase(it);
}

void Transport::enqueue_staged(Domain& domain, std::uint64_t conn,
                               const std::vector<std::byte>& bytes, std::uint64_t frames) {
  const auto it = domain.accepted.find(conn);
  if (it == domain.accepted.end() || !it->second->enqueue_bytes(bytes)) {
    // The client's connection closed since home routed to it, or its cap is
    // full: the whole chunk is lost, like any in-flight message. (Counted,
    // not observed: the observer contract is home-thread-only.)
    count("net.sends_dropped", frames);
    return;
  }
  if (it->second->mark_dirty()) domain.dirty.push_back(it->second.get());
}

// ---- Routes and delivery (home thread) --------------------------------------------

void Transport::received(const Route& via, const Frame& frame) {
  if (frame.payload == nullptr) {
    // The connection closed: release its route unless a newer connection
    // from the same client took it over.
    const auto it = routes_.find(frame.src);
    if (it != routes_.end() && it->second.conn == via.conn) routes_.erase(it);
    return;
  }
  if (frame.src >= options_.world_size && frame.dst == options_.self) {
    routes_[frame.src] = via;
  }
  deliver(frame);
}

void Transport::deliver(const Frame& frame) {
  if (frame.dst != options_.self) {
    count("net.misrouted_frames");
    return;
  }
  count("net.frames_in");
  observe(ClusterEvent::Kind::kDeliver, frame.src, options_.self, frame.payload);
  actor_->on_message(*context_, frame.src, *frame.payload);
}

// ---- Per-cycle hooks --------------------------------------------------------------

void Transport::drain_self_queue() {
  while (!self_queue_.empty()) {
    const PayloadPtr payload = std::move(self_queue_.front());
    self_queue_.pop_front();
    observe(ClusterEvent::Kind::kDeliver, options_.self, options_.self, payload);
    actor_->on_message(*context_, options_.self, *payload);
  }
}

void Transport::before_wait(Domain& domain) {
  if (domain.service_debt >= std::chrono::milliseconds{1}) {
    std::this_thread::sleep_for(std::exchange(domain.service_debt, Duration::zero()));
  }
  if (&domain == &home()) {
    // Self-delivery first: it can enqueue more sends, which the passes
    // below then stage and flush in this same cycle.
    drain_self_queue();
    // Hand each remote-owned client's staged replies to the reactor that
    // owns its connection now — one post per client per cycle.
    for (const ProcessId client : staged_dirty_) {
      StagedBytes& staged = staged_[client];
      staged.staged_dirty = false;
      const auto route = routes_.find(client);
      if (route == routes_.end()) {
        count("net.sends_dropped", staged.frames);
      } else {
        Domain* owner = domains_[route->second.domain].get();
        owner->reactor->post([this, owner, conn = route->second.conn,
                              bytes = std::move(staged.bytes), frames = staged.frames] {
          enqueue_staged(*owner, conn, bytes, frames);
        });
      }
      staged.bytes = {};
      staged.frames = 0;
    }
    staged_dirty_.clear();
  }
  // One coalesced sendmsg pass over everything this cycle enqueued on the
  // connections this domain owns — always before the loop can sleep.
  Connection::flush_dirty(domain.dirty);
  domain.closed.clear();
  // Satellite reactors: ship this cycle's frames and closes to home.
  if (!domain.inbound.empty()) {
    home().reactor->post([this, index = domain.index, batch = std::move(domain.inbound)] {
      for (const Inbound& event : batch) received(Route{index, event.conn}, event.frame);
    });
    domain.inbound = {};
  }
}

}  // namespace abdkit::net

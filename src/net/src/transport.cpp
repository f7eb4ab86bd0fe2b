#include "abdkit/net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "abdkit/common/backoff.hpp"
#include "abdkit/common/log.hpp"
#include "abdkit/net/frame.hpp"

namespace abdkit::net {

namespace {

using runtime::ClusterEvent;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error{what + ": " + std::strerror(errno)};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: latency tuning, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool fill_sockaddr(const Address& address, sockaddr_in& out) {
  std::memset(&out, 0, sizeof out);
  out.sin_family = AF_INET;
  out.sin_port = htons(address.port);
  return ::inet_pton(AF_INET, address.host.c_str(), &out.sin_addr) == 1;
}

/// Upper bound on iovecs per writev — far below IOV_MAX, and enough that
/// one syscall drains several segments' worth of coalesced frames.
constexpr int kMaxFlushIov = 64;

/// How long the acceptor stays paused after EMFILE/ENFILE before retrying:
/// long enough for fds to free up, short enough that a transient spike does
/// not strand dialing clients in the backlog.
constexpr auto kAcceptPause = std::chrono::milliseconds{100};

std::uint64_t jitter_seed(const TransportOptions& options, std::size_t domain) noexcept {
  // Mix self into the stream so identically-configured processes still draw
  // independent jitter (the whole point of having any); mix the domain index
  // so satellite reactors' client redials decorrelate from the replica
  // mesh's. Domain 0 reproduces the old single-loop stream exactly.
  std::uint64_t sm = options.reconnect_jitter_seed ^
                     (0x9e3779b97f4a7c15ULL * (1 + std::uint64_t{options.self}));
  std::uint64_t seed = splitmix64(sm);  // domain 0 == the old single-loop stream
  for (std::size_t i = 0; i < domain; ++i) seed = splitmix64(sm);
  return seed;
}

}  // namespace

// ---- Address parsing --------------------------------------------------------------

bool parse_address(const std::string& text, Address& out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) return false;
  const std::string host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  unsigned long port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) return false;
  }
  sockaddr_in probe{};
  if (::inet_pton(AF_INET, host.c_str(), &probe.sin_addr) != 1) return false;
  out.host = host;
  out.port = static_cast<std::uint16_t>(port);
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
    domain->reconnect_rng = Rng{jitter_seed(options_, i)};
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
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  if (!fill_sockaddr(listen, addr)) {
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
  set_nonblocking(fd);
  listen_fd_ = fd;
  listen_port_ = ntohs(bound.sin_port);
  return listen_port_;
}

void Transport::start(std::vector<Address> peers) {
  if (started_) throw std::logic_error{"Transport: start called twice"};
  if (listen_fd_ < 0) throw std::logic_error{"Transport: start before bind"};
  if (peers.size() < options_.world_size || options_.self >= peers.size()) {
    throw std::invalid_argument{"Transport: address table too small"};
  }
  table_ = std::move(peers);
  peers_.resize(table_.size());
  for (Peer& peer : peers_) peer.queue.set_limit(options_.max_send_buffer);

  // Pre-thread registration is safe: no loop is running yet. Level-
  // triggered, so pausing/resuming the acceptor needs no re-arm protocol.
  listen_slot_ = home().reactor->add_fd(
      listen_fd_, [this](std::uint32_t) { accept_ready(); }, /*edge_triggered=*/false);

  // First thing the home loop does: join the replica mesh, then hand the
  // actor its Context (the old loop()'s preamble, now a post).
  home().reactor->post([this] {
    for (ProcessId p = 0; p < options_.world_size; ++p) {
      if (p != options_.self) begin_connect(home(), p);
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
  close_all_fds();
}

void Transport::close_all_fds() {
  for (Peer& peer : peers_) {
    if (peer.fd >= 0) ::close(peer.fd);
    peer.fd = -1;
    peer.state = PeerState::kIdle;
  }
  for (auto& domain : domains_) {
    for (auto& [slot, conn] : domain->inbound) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    domain->inbound.clear();
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
    fault_blocked_.assign(table_.size(), false);
    for (const ProcessId p : faults_.blocked) {
      if (p < fault_blocked_.size()) fault_blocked_[p] = true;
    }
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
  if (peer < peers_.size()) {
    stats.queued_bytes = peers_[peer].queue.queued_bytes();
    stats.resident_bytes = peers_[peer].queue.resident_bytes();
    stats.frames_committed = peers_[peer].queue.frames_committed();
  }
  return stats;
}

std::size_t Transport::owner_of(ProcessId peer) const noexcept {
  // Replica-mesh peers stay on home with the actor: their lifecycle is
  // protocol-critical (eager dial, forever-redial, chaos injection) and
  // their count is the paper's n, not the fan-in. Client peers shard.
  if (peer < options_.world_size) return 0;
  return static_cast<std::size_t>(peer) % domains_.size();
}

// ---- Metrics / tracing ------------------------------------------------------------

void Transport::count(std::string_view name, std::uint64_t delta) {
  if (options_.metrics != nullptr) options_.metrics->add(name, delta);
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
  if (to >= table_.size()) {
    count("net.sends_dropped");
    observe(ClusterEvent::Kind::kDrop, options_.self, to, payload);
    return;
  }
  observe(ClusterEvent::Kind::kSend, options_.self, to, payload);
  if (to == options_.self) {
    self_queue_.push_back(std::move(payload));
    return;
  }
  if (faults_.active()) {
    // Chaos hook (see FaultPlan): eat the frame before it reaches a peer
    // queue, exactly where real network loss would. Blocked destinations
    // model a partition; the probabilistic stream models a lossy link.
    if ((to < fault_blocked_.size() && fault_blocked_[to]) ||
        (faults_.drop_probability > 0.0 && fault_rng_.chance(faults_.drop_probability))) {
      count("net.faults_dropped");
      observe(ClusterEvent::Kind::kDrop, options_.self, to, payload);
      return;
    }
  }
  const std::size_t owner = owner_of(to);
  if (owner != 0) {
    // Remote-owned client peer: encode here (home pays the cheap encode,
    // the owner pays the syscalls) and stage the bytes; before_wait hands
    // each dirty destination to its owner in one post per cycle.
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
  Peer& peer = peers_[to];
  // Encode straight into the peer's segment queue; commit() rejects (and
  // removes) the frame if it would breach max_send_buffer.
  std::vector<std::byte>& segment = peer.queue.tail();
  const std::size_t mark = segment.size();
  encode_frame_into(segment, options_.self, to, *payload, options_.wire_format);
  if (!peer.queue.commit(mark)) {
    count("net.sends_dropped");
    observe(ClusterEvent::Kind::kDrop, options_.self, to, payload);
    return;
  }
  count("net.frames_out");
  switch (peer.state) {
    case PeerState::kIdle:
      begin_connect(home(), to);
      break;
    case PeerState::kConnected:
      // Deferred: the before-wait flush pass runs one coalesced writev per
      // peer per cycle, so a burst of sends (a broadcast, pipelined ops)
      // shares syscalls instead of paying one write(2) per frame.
      if (!peer.flush_pending) {
        peer.flush_pending = true;
        home().dirty_peers.push_back(to);
      }
      break;
    case PeerState::kConnecting:
    case PeerState::kBackoff:
      break;  // buffered; flushed on connect, dropped if the dial fails
  }
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

// ---- Connection management (owner reactor's thread) -------------------------------

void Transport::begin_connect(Domain& domain, ProcessId peer_id) {
  Peer& peer = peers_[peer_id];
  count("net.connect_attempts");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    peer_failed(domain, peer_id, false);
    return;
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  sockaddr_in addr{};
  if (!fill_sockaddr(table_[peer_id], addr)) {
    ::close(fd);
    peer_failed(domain, peer_id, false);
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    peer_failed(domain, peer_id, false);
    return;
  }
  peer.fd = fd;
  peer.slot = domain.reactor->add_fd(
      fd, [this, &domain, peer_id](std::uint32_t events) {
        peer_event(domain, peer_id, events);
      });
  if (rc == 0) {
    peer_connected(domain, peer_id);
  } else {
    peer.state = PeerState::kConnecting;  // EPOLLOUT edge completes the dial
  }
}

void Transport::peer_connected(Domain& domain, ProcessId peer_id) {
  Peer& peer = peers_[peer_id];
  peer.state = PeerState::kConnected;
  count(peer.ever_connected ? "net.reconnects" : "net.connects");
  peer.ever_connected = true;
  peer.backoff = Duration::zero();
  flush_peer(domain, peer_id);
}

void Transport::peer_failed(Domain& domain, ProcessId peer_id, bool was_connected) {
  Peer& peer = peers_[peer_id];
  if (peer.fd >= 0) {
    domain.reactor->remove(peer.slot);
    ::close(peer.fd);
    peer.fd = -1;
  }
  if (was_connected) count("net.disconnects");
  // Whatever was queued counts as in-flight loss — the crash-fault model.
  if (!peer.queue.empty()) count("net.dropped_bytes", peer.queue.queued_bytes());
  peer.queue.clear();
  peer.flush_pending = false;
  peer.write_blocked = false;
  if (peer_id < options_.world_size) {
    // Replica mesh: keep redialing forever, so a restarted replica is
    // readopted without coordination. Decorrelated jitter, not bare
    // doubling: replicas that lost the same peer at the same instant must
    // not redial in lockstep (thundering-herd on the restarted listener).
    // The redial deadline is a wheel timer — the old loop re-derived it by
    // scanning every peer each cycle to compute the poll timeout.
    peer.backoff = next_reconnect_backoff(peer.backoff, options_.reconnect_min,
                                          options_.reconnect_max, domain.reconnect_rng);
    peer.state = PeerState::kBackoff;
    peer.redial_timer = domain.reactor->timers().add(
        now() + peer.backoff, [this, &domain, peer_id] {
          peers_[peer_id].redial_timer = 0;
          if (peers_[peer_id].state == PeerState::kBackoff) {
            begin_connect(domain, peer_id);
          }
        });
  } else {
    // Client-only peers are dialed on demand; a vanished client costs nothing.
    peer.state = PeerState::kIdle;
  }
}

void Transport::peer_event(Domain& domain, ProcessId peer_id, std::uint32_t events) {
  Peer& peer = peers_[peer_id];
  if (peer.fd < 0) return;  // stale edge for a peer already torn down
  if (peer.state == PeerState::kConnecting) {
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      peer_failed(domain, peer_id, false);
      return;
    }
    if ((events & EPOLLOUT) != 0) {
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
        peer_failed(domain, peer_id, false);
        return;
      }
      peer_connected(domain, peer_id);
    }
    return;
  }
  if ((events & EPOLLIN) != 0) {
    // We never expect data on the dialer side; reading here exists to
    // observe EOF/reset promptly. Edge-triggered: drain until EAGAIN.
    std::byte sink[1024];
    for (;;) {
      const ssize_t n = ::read(peer.fd, sink, sizeof sink);
      if (n > 0) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      peer_failed(domain, peer_id, true);  // EOF or hard error
      return;
    }
  }
  if ((events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0) {
    peer_failed(domain, peer_id, true);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    peer.write_blocked = false;
    if (!peer.queue.empty()) flush_peer(domain, peer_id);
  }
}

void Transport::flush_peer(Domain& domain, ProcessId peer_id) {
  Peer& peer = peers_[peer_id];
  peer.flush_pending = false;
  while (!peer.queue.empty()) {
    struct iovec iov[kMaxFlushIov];
    const int iov_n = peer.queue.gather(iov, kMaxFlushIov);
    // sendmsg(MSG_NOSIGNAL), not writev: a peer process can die between our
    // readiness check and this write, and a SIGPIPE would kill the whole
    // process instead of surfacing EPIPE to the reconnect path.
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_n);
    const ssize_t n = ::sendmsg(peer.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Consumed segments are released inside the queue immediately — a
      // partial write never pins the already-written prefix.
      peer.queue.consume(static_cast<std::size_t>(n));
      count("net.bytes_out", static_cast<std::uint64_t>(n));
      count("net.writev_calls");
      count("net.writev_iovecs", static_cast<std::uint64_t>(iov_n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Edge-triggered: no more syscalls until the next EPOLLOUT edge.
      peer.write_blocked = true;
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    peer_failed(domain, peer_id, true);
    return;
  }
}

void Transport::enqueue_bytes(Domain& domain, ProcessId peer_id, const std::byte* data,
                              std::size_t size, std::uint64_t frames) {
  Peer& peer = peers_[peer_id];
  std::vector<std::byte>& segment = peer.queue.tail();
  const std::size_t mark = segment.size();
  segment.insert(segment.end(), data, data + size);
  if (!peer.queue.commit(mark)) {
    // Cap breach drops the whole staged chunk — the same loss model as the
    // per-frame drop, at hand-off granularity. (Counted, not observed: the
    // observer contract is home-thread-only.)
    count("net.sends_dropped", frames);
    return;
  }
  switch (peer.state) {
    case PeerState::kIdle:
      begin_connect(domain, peer_id);
      break;
    case PeerState::kConnected:
      if (!peer.flush_pending) {
        peer.flush_pending = true;
        domain.dirty_peers.push_back(peer_id);
      }
      break;
    case PeerState::kConnecting:
    case PeerState::kBackoff:
      break;
  }
}

// ---- Inbound path -----------------------------------------------------------------

void Transport::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
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
    set_nonblocking(fd);
    set_nodelay(fd);
    count("net.accepts");
    // Round-robin shard: each accepted connection is owned (read, decoded,
    // service-modeled) by exactly one reactor for its whole lifetime.
    Domain& domain = *domains_[next_inbound_domain_];
    next_inbound_domain_ = (next_inbound_domain_ + 1) % domains_.size();
    if (&domain == &home()) {
      adopt_inbound(domain, fd);
    } else {
      Domain* raw = &domain;
      domain.reactor->post([this, raw, fd] { adopt_inbound(*raw, fd); });
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

void Transport::adopt_inbound(Domain& domain, int fd) {
  Inbound conn;
  conn.fd = fd;
  conn.decoder = std::make_unique<FrameDecoder>(options_.max_frame_length);
  auto slot_box = std::make_shared<std::uint32_t>(0);
  Domain* raw = &domain;
  const std::uint32_t slot = domain.reactor->add_fd(
      fd, [this, raw, slot_box](std::uint32_t events) {
        inbound_event(*raw, *slot_box, events);
      });
  *slot_box = slot;
  domain.inbound.emplace(slot, std::move(conn));
}

void Transport::close_inbound(Domain& domain, std::uint32_t slot) {
  const auto it = domain.inbound.find(slot);
  if (it == domain.inbound.end()) return;
  domain.reactor->remove(slot);
  if (it->second.fd >= 0) ::close(it->second.fd);
  domain.inbound.erase(it);
}

void Transport::inbound_event(Domain& domain, std::uint32_t slot, std::uint32_t events) {
  const auto it = domain.inbound.find(slot);
  if (it == domain.inbound.end()) return;
  Inbound& conn = it->second;
  std::uint64_t decoded = 0;
  if ((events & EPOLLIN) != 0) {
    std::byte chunk[16384];
    for (;;) {
      const ssize_t n = ::read(conn.fd, chunk, sizeof chunk);
      if (n > 0) {
        count("net.read_calls");
        count("net.bytes_in", static_cast<std::uint64_t>(n));
        conn.decoder->feed(std::span{chunk, static_cast<std::size_t>(n)});
        Frame frame;
        for (;;) {
          const FrameDecoder::Status status = conn.decoder->next(frame);
          if (status == FrameDecoder::Status::kFrame) {
            ++decoded;
            if (&domain == &home()) {
              deliver(frame);
            } else {
              // Decoded off-thread; delivered to the actor in one home post
              // per cycle (before_wait flushes the batch).
              domain.delivery_batch.push_back(std::move(frame));
            }
            continue;
          }
          if (status == FrameDecoder::Status::kError) {
            ABDKIT_LOG(LogLevel::kWarn, "net", "p", options_.self,
                       ": closing corrupt inbound stream: ", conn.decoder->error());
            count("net.frame_decode_errors");
            close_inbound(domain, slot);
            return;
          }
          break;  // kNeedMore
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_inbound(domain, slot);  // EOF or hard error: the peer is gone
      return;
    }
  }
  // Modeled per-frame service time (bench_c1): charge the owning reactor,
  // sleeping in >= 1 ms chunks so short debts accumulate instead of
  // busy-spinning sub-millisecond sleeps.
  if (decoded > 0 && options_.inbound_service_time > Duration::zero()) {
    domain.service_debt += static_cast<std::int64_t>(decoded) * options_.inbound_service_time;
    if (domain.service_debt >= std::chrono::milliseconds{1}) {
      const auto sleep_for = domain.service_debt;
      domain.service_debt = Duration::zero();
      std::this_thread::sleep_for(sleep_for);
    }
  }
  if ((events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0) {
    close_inbound(domain, slot);
  }
}

void Transport::deliver(const Frame& frame) {
  if (frame.dst != options_.self || frame.src >= table_.size()) {
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
  if (&domain == &home()) {
    // Self-delivery first: it can enqueue more sends, which the passes
    // below then stage and flush in this same cycle.
    drain_self_queue();
    // Hand each dirty remote-owned destination's staged bytes to its owner
    // — one post per destination per cycle, not per frame.
    for (const ProcessId peer_id : staged_dirty_) {
      StagedBytes& staged = staged_[peer_id];
      staged.staged_dirty = false;
      Domain* owner = domains_[owner_of(peer_id)].get();
      owner->reactor->post([this, owner, peer_id, bytes = std::move(staged.bytes),
                            frames = staged.frames] {
        enqueue_bytes(*owner, peer_id, bytes.data(), bytes.size(), frames);
      });
      staged.bytes = {};
      staged.frames = 0;
    }
    staged_dirty_.clear();
  }
  // One coalesced writev pass over everything this cycle enqueued for the
  // peers this domain owns — always before the loop can sleep.
  for (const ProcessId peer_id : domain.dirty_peers) {
    Peer& peer = peers_[peer_id];
    if (!peer.flush_pending) continue;
    if (peer.state == PeerState::kConnected && !peer.write_blocked) {
      flush_peer(domain, peer_id);
    } else {
      peer.flush_pending = false;  // flushed on connect / next EPOLLOUT edge
    }
  }
  domain.dirty_peers.clear();
  // Satellite reactors: ship this cycle's decoded frames to the actor.
  if (!domain.delivery_batch.empty()) {
    home().reactor->post(
        [this, batch = std::move(domain.delivery_batch)] {
          for (const Frame& frame : batch) deliver(frame);
        });
    domain.delivery_batch = {};
  }
}

}  // namespace abdkit::net

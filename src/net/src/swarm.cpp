#include "abdkit/net/swarm.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace abdkit::net {

namespace {

/// Failed or lost dials retry on the shard wheel after this long; under a
/// backlog-overflowed listener the kernel already paces SYN retries, this
/// only governs hard connect() errors.
constexpr auto kRedialDelay = std::chrono::milliseconds{100};

std::uint64_t us_of(Duration d) noexcept {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

}  // namespace

/// The Context each swarm client's abd::Node runs against. Every call is
/// made on the owning shard's thread (the single-threaded actor contract).
class ClientSwarm::SwarmContext final : public Context {
 public:
  SwarmContext(ClientSwarm& swarm, SwarmClient& client) noexcept
      : swarm_{&swarm}, client_{&client} {}

  [[nodiscard]] ProcessId self() const noexcept override { return client_->id; }
  [[nodiscard]] std::size_t world_size() const noexcept override {
    return swarm_->options_.world_size;
  }
  void send(ProcessId to, PayloadPtr payload) override {
    swarm_->client_send(*client_, to, std::move(payload));
  }
  void broadcast(PayloadPtr payload) override {
    for (ProcessId p = 0; p < swarm_->options_.world_size; ++p) send(p, payload);
  }
  TimerId set_timer(Duration delay, TimerCallback cb) override {
    return client_->shard->reactor->timers().add(swarm_->now() + delay, std::move(cb));
  }
  void cancel_timer(TimerId id) override {
    (void)client_->shard->reactor->timers().cancel(id);
  }
  [[nodiscard]] TimePoint now() const noexcept override { return swarm_->now(); }

 private:
  ClientSwarm* swarm_;
  SwarmClient* client_;
};

ClientSwarm::ClientSwarm(SwarmOptions options)
    : options_{std::move(options)}, epoch_{std::chrono::steady_clock::now()} {
  if (options_.clients == 0) throw std::invalid_argument{"ClientSwarm: 0 clients"};
  if (options_.world_size == 0) throw std::invalid_argument{"ClientSwarm: world_size 0"};
  const std::size_t shard_count =
      std::max<std::size_t>(1, std::min(options_.shards, options_.clients));
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->reactor = std::make_unique<Reactor>([this] { return now(); });
    Shard* raw = shard.get();
    // One coalesced sendmsg per dirty connection per cycle.
    shard->reactor->set_before_wait([raw] { Connection::flush_dirty(raw->dirty); });
    shards_.push_back(std::move(shard));
  }
  clients_.reserve(options_.clients);
  for (std::size_t i = 0; i < options_.clients; ++i) {
    auto client = std::make_unique<SwarmClient>();
    client->id = static_cast<ProcessId>(options_.world_size + i);
    client->shard = shards_[i % shards_.size()].get();
    client->node = std::make_unique<abd::Node>(options_.node);
    client->ctx = std::make_unique<SwarmContext>(*this, *client);
    SwarmClient* raw = client.get();
    for (std::size_t r = 0; r < options_.world_size; ++r) {
      client->conns.push_back(std::make_unique<Connection>(
          *client->shard->reactor,
          Connection::Callbacks{
              .on_connected =
                  [this, raw, r] {
                    connect_hist_.record_us(us_of(now() - raw->dialed_at[r]));
                    connected_.fetch_add(1, std::memory_order_relaxed);
                    count("swarm.connects");
                  },
              .on_frame = [this, raw](Frame& frame) { dispatch(*raw, frame); },
              .on_closed = [this, raw, r](Connection::Closed why) {
                conn_closed(*raw, r, why);
              }},
          options_.max_send_buffer, options_.max_frame_length, nullptr));
    }
    client->dialed_at.resize(options_.world_size);
    client->shard->clients.push_back(client.get());
    clients_.push_back(std::move(client));
  }
}

ClientSwarm::~ClientSwarm() { stop(); }

TimePoint ClientSwarm::now() const {
  return std::chrono::duration_cast<Duration>(std::chrono::steady_clock::now() - epoch_);
}

void ClientSwarm::count(std::string_view name, std::uint64_t delta) {
  if (options_.metrics != nullptr) options_.metrics->add(name, delta);
}

bool ClientSwarm::start(std::vector<Address> table) {
  if (started_) throw std::logic_error{"ClientSwarm: start called twice"};
  if (table.size() < options_.world_size) {
    throw std::invalid_argument{"ClientSwarm: table too small"};
  }
  table_ = std::move(table);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->reactor->post([this, raw] {
      for (SwarmClient* client : raw->clients) {
        client->node->on_start(*client->ctx);
        for (std::size_t r = 0; r < options_.world_size; ++r) dial(*client, r);
      }
    });
  }
  started_ = true;
  for (auto& shard : shards_) {
    Reactor* reactor = shard->reactor.get();
    shard->thread = std::thread([reactor] { reactor->run(); });
  }
  const std::size_t want = options_.clients * options_.world_size;
  const auto deadline = std::chrono::steady_clock::now() + options_.connect_timeout;
  while (connected_.load(std::memory_order_relaxed) < want) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  return true;
}

void ClientSwarm::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  running_.store(false, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->reactor->stop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : shards_) shard->dirty.clear();
  for (auto& client : clients_) {
    for (auto& conn : client->conns) conn->close();
  }
}

// ---- Connections (shard thread) --------------------------------------------------

void ClientSwarm::dial(SwarmClient& client, std::size_t replica) {
  client.dialed_at[replica] = now();
  client.conns[replica]->dial(table_[replica]);
}

void ClientSwarm::conn_closed(SwarmClient& client, std::size_t replica,
                              Connection::Closed why) {
  if (why == Connection::Closed::kCorrupt) count("swarm.frame_decode_errors");
  if (why != Connection::Closed::kDialFailed) {
    connected_.fetch_sub(1, std::memory_order_relaxed);
    count("swarm.disconnects");
  }
  // Queued frames were dropped with the socket: the retransmit timer (if
  // the bench configured one) regenerates anything the replica never saw.
  SwarmClient* raw = &client;
  client.shard->reactor->timers().add(now() + kRedialDelay, [this, raw, replica] {
    if (raw->conns[replica]->closed()) dial(*raw, replica);
  });
}

void ClientSwarm::client_send(SwarmClient& client, ProcessId to, PayloadPtr payload) {
  if (to >= options_.world_size ||
      !client.conns[to]->enqueue(client.id, to, *payload, options_.wire_format)) {
    // Swarm clients only ever address the replica group; a full queue loses
    // the frame like any in-flight message.
    count("swarm.sends_dropped");
    return;
  }
  Connection* conn = client.conns[to].get();
  if (conn->mark_dirty()) client.shard->dirty.push_back(conn);
}

void ClientSwarm::dispatch(SwarmClient& client, const Frame& frame) {
  if (frame.dst != client.id) {
    count("swarm.misrouted_frames");
    return;
  }
  client.node->on_message(*client.ctx, frame.src, *frame.payload);
}

// ---- Workload ---------------------------------------------------------------------

void ClientSwarm::issue(SwarmClient& client) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  // Each client reads its own object: load spreads without write contention
  // and per-op message counts stay at the E1 read formula exactly.
  const auto object = static_cast<abd::ObjectId>(client.id);
  SwarmClient* raw = &client;
  client.node->read(object, [this, raw](const abd::OpResult& result) {
    ops_.fetch_add(1, std::memory_order_relaxed);
    messages_.fetch_add(result.messages_sent, std::memory_order_relaxed);
    rounds_.fetch_add(result.rounds, std::memory_order_relaxed);
    op_hist_.record_us(us_of(result.responded - result.invoked));
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    if (running_.load(std::memory_order_relaxed)) issue(*raw);
  });
}

ClientSwarm::RunStats ClientSwarm::run_reads(Duration duration) {
  if (!started_ || stopped_) throw std::logic_error{"ClientSwarm: run before start"};
  ops_.store(0, std::memory_order_relaxed);
  messages_.store(0, std::memory_order_relaxed);
  rounds_.store(0, std::memory_order_relaxed);
  op_hist_.reset();
  running_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->reactor->post([this, raw] {
      for (SwarmClient* client : raw->clients) {
        for (std::size_t d = 0; d < options_.pipeline_depth; ++d) issue(*client);
      }
    });
  }
  const auto run_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(duration);
  running_.store(false, std::memory_order_relaxed);
  // Drain the closed loop: completions stop re-issuing, so in-flight falls
  // to zero as the last pipelined ops finish (bounded grace for stragglers
  // stuck behind a dead replica).
  const auto grace = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (in_flight_.load(std::memory_order_relaxed) > 0 &&
         std::chrono::steady_clock::now() < grace) {
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  const auto elapsed = std::chrono::steady_clock::now() - run_start;

  RunStats stats;
  stats.ops = ops_.load(std::memory_order_relaxed);
  stats.stragglers = in_flight_.load(std::memory_order_relaxed);
  stats.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  stats.p50_us = op_hist_.quantile_us(0.50);
  stats.p99_us = op_hist_.quantile_us(0.99);
  stats.p999_us = op_hist_.quantile_us(0.999);
  stats.max_us = op_hist_.max_us();
  stats.messages = messages_.load(std::memory_order_relaxed);
  stats.rounds = rounds_.load(std::memory_order_relaxed);
  stats.connects = connect_hist_.count();
  stats.connect_p50_us = connect_hist_.quantile_us(0.50);
  stats.connect_p99_us = connect_hist_.quantile_us(0.99);
  stats.connect_max_us = connect_hist_.max_us();
  count("swarm.ops", stats.ops);
  return stats;
}

}  // namespace abdkit::net

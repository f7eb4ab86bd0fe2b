// Tests for the threaded runtime: the same protocols under real
// concurrency. Non-deterministic by nature, so assertions are about
// semantics (values, linearizability) rather than exact schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "abdkit/abd/anti_entropy.hpp"
#include "abdkit/abd/node.hpp"
#include "abdkit/abd/sync_register.hpp"
#include "abdkit/checker/history.hpp"
#include "abdkit/checker/linearizability.hpp"
#include "abdkit/kv/kv_node.hpp"
#include "abdkit/kv/sync_kv.hpp"
#include "abdkit/runtime/cluster.hpp"

namespace abdkit::runtime {
namespace {

using namespace std::chrono_literals;

/// The blocking facade over the node `cluster` hosts at `host`.
abd::SyncRegister sync_register(Cluster& cluster, ProcessId host,
                                abd::RegisterNode& node) {
  return {[&cluster, host](std::function<void()> fn) {
            cluster.post(host, std::move(fn));
          },
          node};
}

constexpr Duration kOpTimeout = 5s;

struct AbdCluster {
  explicit AbdCluster(std::size_t n, abd::WriteMode write_mode,
                      Duration max_delay = Duration::zero()) {
    auto quorums = std::make_shared<const quorum::MajorityQuorum>(n);
    ClusterOptions options;
    options.num_processes = n;
    options.seed = 42;
    options.max_delay = max_delay;
    nodes.resize(n, nullptr);
    cluster = std::make_unique<Cluster>(
        options, [&](ProcessId p) -> std::unique_ptr<Actor> {
          auto node = std::make_unique<abd::Node>(
              abd::NodeOptions{quorums, abd::ReadMode::kAtomic, write_mode});
          nodes[p] = node.get();
          return node;
        });
    cluster->start();
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<abd::Node*> nodes;
};

TEST(Cluster, WriteThenReadAcrossProcesses) {
  AbdCluster c{3, abd::WriteMode::kSingleWriter};
  abd::SyncRegister writer = sync_register(*c.cluster, 0, *c.nodes[0]);
  abd::SyncRegister reader = sync_register(*c.cluster, 2, *c.nodes[2]);

  const auto write_result = writer.write(0, Value{.data = 55}, kOpTimeout);
  ASSERT_TRUE(write_result.has_value());
  const auto read_result = reader.read(0, kOpTimeout);
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->value.data, 55);
}

TEST(Cluster, InjectedDelaysStillComplete) {
  AbdCluster c{5, abd::WriteMode::kSingleWriter, /*max_delay=*/3ms};
  abd::SyncRegister writer = sync_register(*c.cluster, 0, *c.nodes[0]);
  abd::SyncRegister reader = sync_register(*c.cluster, 4, *c.nodes[4]);
  ASSERT_TRUE(writer.write(0, Value{.data = 7}, kOpTimeout).has_value());
  const auto read_result = reader.read(0, kOpTimeout);
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->value.data, 7);
}

TEST(Cluster, MinorityCrashTolerated) {
  AbdCluster c{5, abd::WriteMode::kSingleWriter};
  c.cluster->crash(3);
  c.cluster->crash(4);
  abd::SyncRegister writer = sync_register(*c.cluster, 0, *c.nodes[0]);
  abd::SyncRegister reader = sync_register(*c.cluster, 1, *c.nodes[1]);
  ASSERT_TRUE(writer.write(0, Value{.data = 1}, kOpTimeout).has_value());
  const auto read_result = reader.read(0, kOpTimeout);
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->value.data, 1);
}

TEST(Cluster, MajorityCrashTimesOut) {
  AbdCluster c{3, abd::WriteMode::kSingleWriter};
  c.cluster->crash(1);
  c.cluster->crash(2);
  abd::SyncRegister writer = sync_register(*c.cluster, 0, *c.nodes[0]);
  EXPECT_FALSE(writer.write(0, Value{.data = 1}, 200ms).has_value());
}

TEST(Cluster, ConcurrentClientsStayLinearizable) {
  AbdCluster c{5, abd::WriteMode::kMultiWriter, /*max_delay=*/1ms};

  checker::History history;
  std::mutex history_mutex;
  std::atomic<std::int64_t> next_value{0};

  const auto client = [&](ProcessId host, int ops, bool writes) {
    abd::SyncRegister reg = sync_register(*c.cluster, host, *c.nodes[host]);
    Rng rng{host * 1000 + 1};
    for (int i = 0; i < ops; ++i) {
      const TimePoint invoked = c.cluster->now();
      if (writes && rng.chance(0.5)) {
        const std::int64_t value = ++next_value;
        const auto result = reg.write(0, Value{.data = value}, kOpTimeout);
        ASSERT_TRUE(result.has_value());
        const std::scoped_lock lock{history_mutex};
        history.add(checker::OpRecord{host, checker::OpType::kWrite, 0, value,
                                      invoked, result->responded, true});
      } else {
        const auto result = reg.read(0, kOpTimeout);
        ASSERT_TRUE(result.has_value());
        const std::scoped_lock lock{history_mutex};
        history.add(checker::OpRecord{host, checker::OpType::kRead, 0,
                                      result->value.data, invoked,
                                      result->responded, true});
      }
    }
  };

  std::vector<std::thread> clients;
  for (ProcessId host = 0; host < 5; ++host) {
    clients.emplace_back(client, host, 20, host < 3);
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(history.size(), 100U);
  // Interval timestamps come from the steady clock observed on different
  // threads around the same future; the invocation stamp is taken before
  // the op is posted and the response stamp inside the mailbox thread, so
  // intervals are conservative (contain the true critical section).
  const auto report = checker::check_linearizable(history);
  EXPECT_TRUE(report.linearizable) << report.explanation;
}

/// Probe actor that arms two timers in on_start: one expected to fire,
/// one cancelled immediately.
class TimerProbe final : public Actor {
 public:
  TimerProbe(std::promise<void>& fired, std::atomic<bool>& cancelled_ran) noexcept
      : fired_{&fired}, cancelled_ran_{&cancelled_ran} {}

  void on_start(Context& ctx) override {
    ctx.set_timer(5ms, [this] { fired_->set_value(); });
    const TimerId doomed = ctx.set_timer(5ms, [this] { cancelled_ran_->store(true); });
    ctx.cancel_timer(doomed);
  }
  void on_message(Context&, ProcessId, const Payload&) override {}

 private:
  std::promise<void>* fired_;
  std::atomic<bool>* cancelled_ran_;
};

TEST(Cluster, TimersFireAndCancel) {
  std::promise<void> fired;
  auto fired_future = fired.get_future();
  std::atomic<bool> cancelled_ran{false};
  ClusterOptions options;
  options.num_processes = 1;
  Cluster cluster{options, [&](ProcessId) -> std::unique_ptr<Actor> {
                    return std::make_unique<TimerProbe>(fired, cancelled_ran);
                  }};
  cluster.start();
  ASSERT_EQ(fired_future.wait_for(2s), std::future_status::ready);
  std::this_thread::sleep_for(20ms);  // give the cancelled timer time to misfire
  EXPECT_FALSE(cancelled_ran.load());
  cluster.stop();
}

/// Captures the process's Context so test closures posted to the mailbox
/// thread can arm/cancel timers through the sanctioned interface.
class ContextCapture final : public Actor {
 public:
  void on_start(Context& ctx) override { ctx_ = &ctx; }
  void on_message(Context&, ProcessId, const Payload&) override {}

  Context* ctx_{nullptr};
};

TEST(Cluster, TimerBookkeepingStaysBounded) {
  // Heavy set/cancel churn must leave zero bookkeeping behind, in BOTH
  // orders. Cancel-after-fire is the one that leaked: the old tombstone
  // scheme recorded every such cancel forever (the retransmit timer of a
  // completed phase is exactly this pattern).
  ClusterOptions options;
  options.num_processes = 1;
  ContextCapture* probe = nullptr;
  Cluster cluster{options, [&](ProcessId) -> std::unique_ptr<Actor> {
                    auto actor = std::make_unique<ContextCapture>();
                    probe = actor.get();
                    return actor;
                  }};
  cluster.start();

  // Phase 1: cancel-before-fire, all on the mailbox thread.
  std::promise<void> churned;
  auto churned_future = churned.get_future();
  cluster.post(0, [&] {
    Context& ctx = *probe->ctx_;
    for (int i = 0; i < 10'000; ++i) {
      ctx.cancel_timer(ctx.set_timer(1h, [] {}));
    }
    churned.set_value();
  });
  ASSERT_EQ(churned_future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(cluster.timer_bookkeeping_size(0), 0U);

  // Phase 2: let timers fire first, then cancel their (dead) ids.
  constexpr int kFireCount = 1000;
  std::atomic<int> fired{0};
  std::promise<void> all_fired;
  auto all_fired_future = all_fired.get_future();
  auto ids = std::make_shared<std::vector<TimerId>>();
  cluster.post(0, [&, ids] {
    Context& ctx = *probe->ctx_;
    for (int i = 0; i < kFireCount; ++i) {
      ids->push_back(ctx.set_timer(Duration::zero(), [&] {
        if (fired.fetch_add(1, std::memory_order_relaxed) + 1 == kFireCount) {
          all_fired.set_value();
        }
      }));
    }
  });
  ASSERT_EQ(all_fired_future.wait_for(5s), std::future_status::ready);
  std::promise<void> cancelled;
  auto cancelled_future = cancelled.get_future();
  cluster.post(0, [&, ids] {
    for (const TimerId id : *ids) probe->ctx_->cancel_timer(id);
    cancelled.set_value();
  });
  ASSERT_EQ(cancelled_future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(cluster.timer_bookkeeping_size(0), 0U);
  cluster.stop();
}

TEST(Cluster, PostRunsOnMailboxThread) {
  AbdCluster c{2, abd::WriteMode::kSingleWriter};
  std::promise<std::thread::id> id_promise;
  auto id_future = id_promise.get_future();
  c.cluster->post(1, [&] { id_promise.set_value(std::this_thread::get_id()); });
  ASSERT_EQ(id_future.wait_for(2s), std::future_status::ready);
  EXPECT_NE(id_future.get(), std::this_thread::get_id());
}

TEST(Cluster, StopIsIdempotent) {
  AbdCluster c{2, abd::WriteMode::kSingleWriter};
  c.cluster->stop();
  c.cluster->stop();
}

TEST(Cluster, RejectsBadConfig) {
  const auto factory = [](ProcessId) -> std::unique_ptr<Actor> { return nullptr; };
  EXPECT_THROW(Cluster(ClusterOptions{.num_processes = 0}, factory),
               std::invalid_argument);
  EXPECT_THROW(Cluster(ClusterOptions{.num_processes = 1}, factory),
               std::invalid_argument);
}

TEST(Cluster, GossipingNodesRepairOnRealThreads) {
  // Anti-entropy rides Context timers; run it under genuine concurrency.
  auto quorums = std::make_shared<const quorum::MajorityQuorum>(3);
  abd::GossipOptions gossip;
  gossip.interval = 2ms;
  gossip.rounds_limit = 0;  // free-running; cluster stop ends it
  std::vector<abd::GossipingNode*> nodes(3, nullptr);
  ClusterOptions options;
  options.num_processes = 3;
  options.seed = 5;
  Cluster cluster{options, [&](ProcessId p) -> std::unique_ptr<Actor> {
                    auto node = std::make_unique<abd::GossipingNode>(
                        abd::NodeOptions{quorums, abd::ReadMode::kAtomic,
                                         abd::WriteMode::kSingleWriter},
                        gossip);
                    nodes[p] = node.get();
                    return node;
                  }};
  cluster.start();

  abd::SyncRegister writer = sync_register(cluster, 0, *nodes[0]);
  ASSERT_TRUE(writer.write(0, Value{.data = 31}, kOpTimeout).has_value());
  // Give gossip a few intervals; every replica should converge even though
  // the write only waited for a majority.
  std::this_thread::sleep_for(100ms);
  cluster.stop();
  for (auto* node : nodes) {
    EXPECT_EQ(node->node().replica().slot(0).value.data, 31);
    EXPECT_GT(node->gossip_rounds(), 0U);
  }
}

TEST(SyncKvCluster, EndToEnd) {
  auto quorums = std::make_shared<const quorum::MajorityQuorum>(3);
  std::vector<kv::KvNode*> nodes(3, nullptr);
  ClusterOptions options;
  options.num_processes = 3;
  options.seed = 7;
  Cluster cluster{options, [&](ProcessId p) -> std::unique_ptr<Actor> {
                    auto node = std::make_unique<kv::KvNode>(quorums);
                    nodes[p] = node.get();
                    return node;
                  }};
  cluster.start();

  kv::SyncKv client0{cluster, 0, *nodes[0]};
  kv::SyncKv client2{cluster, 2, *nodes[2]};

  ASSERT_TRUE(client0.put("user:1", 111, kOpTimeout).has_value());
  const auto got = client2.get("user:1", kOpTimeout);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, std::optional<std::int64_t>{111});

  ASSERT_TRUE(client2.erase("user:1", kOpTimeout).has_value());
  const auto gone = client0.get("user:1", kOpTimeout);
  ASSERT_TRUE(gone.has_value());
  EXPECT_FALSE(gone->value.has_value());
}

}  // namespace
}  // namespace abdkit::runtime

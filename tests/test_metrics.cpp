// The unified metrics/observability layer: the Metrics registry itself,
// sim-vs-cluster parity of what the protocol records into it, and event
// tracing through the cluster observer (ClusterRecorder + JSONL).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/harness/deployment.hpp"
#include "abdkit/runtime/cluster.hpp"
#include "abdkit/runtime/sync_register.hpp"
#include "abdkit/trace/cluster_trace.hpp"

namespace abdkit {
namespace {

using namespace std::chrono_literals;

// ---- Registry ---------------------------------------------------------------

TEST(Metrics, CountersAccumulate) {
  Metrics m;
  EXPECT_EQ(m.counter("never.touched"), 0U);
  m.add("a");
  m.add("a", 4);
  m.add("b", 2);
  EXPECT_EQ(m.counter("a"), 5U);
  EXPECT_EQ(m.counter("b"), 2U);
  EXPECT_EQ(m.counter_names(), (std::vector<std::string>{"a", "b"}));
}

TEST(Metrics, TimersRecordExactQuantiles) {
  Metrics m;
  EXPECT_TRUE(m.timer("never.touched").empty());
  for (int i = 1; i <= 100; ++i) m.observe("lat", static_cast<double>(i));
  const Summary s = m.timer("lat");
  EXPECT_EQ(s.count(), 100U);
  // Summary interpolates between adjacent order statistics.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 50.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 99.01);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_EQ(m.timer_names(), (std::vector<std::string>{"lat"}));
}

TEST(Metrics, ObserveUsConvertsToMicroseconds) {
  Metrics m;
  m.observe_us("t", 1500ns);
  m.observe_us("t", 2ms);
  const Summary s = m.timer("t");
  EXPECT_DOUBLE_EQ(s.max(), 2000.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.5);
}

TEST(Metrics, MergeFoldsCountersAndSeries) {
  Metrics a;
  Metrics b;
  a.add("shared", 2);
  a.observe("lat", 1.0);
  b.add("shared", 3);
  b.add("only_b");
  b.observe("lat", 3.0);
  a.merge(b);
  EXPECT_EQ(a.counter("shared"), 5U);
  EXPECT_EQ(a.counter("only_b"), 1U);
  EXPECT_EQ(a.timer("lat").count(), 2U);
  EXPECT_DOUBLE_EQ(a.timer("lat").max(), 3.0);
}

TEST(Metrics, MergeWithSelfDoesNotDeadlock) {
  Metrics m;
  m.add("c", 2);
  m.observe("t", 1.0);
  m.merge(m);  // snapshot-then-fold: must not self-deadlock
  EXPECT_EQ(m.counter("c"), 4U);
  EXPECT_EQ(m.timer("t").count(), 2U);
}

TEST(Metrics, ResetClearsEverything) {
  Metrics m;
  m.add("c");
  m.observe("t", 1.0);
  m.reset();
  EXPECT_TRUE(m.counter_names().empty());
  EXPECT_TRUE(m.timer_names().empty());
}

TEST(Metrics, JsonShapeIsDeterministic) {
  Metrics m;
  m.add("b.count", 2);
  m.add("a.count", 1);
  m.observe("lat_us", 4.0);
  m.record_us("op_us", 7us);
  EXPECT_EQ(m.to_json(),
            R"({"counters":{"a.count":1,"b.count":2},)"
            R"("timers":{"lat_us":{"count":1,"mean":4,"p50":4,"p99":4,"max":4}},)"
            R"("hists":{"op_us":{"count":1,"p50":7,"p99":7,"p999":7,"max":7}}})");
  Metrics empty;
  EXPECT_EQ(empty.to_json(), R"({"counters":{},"timers":{},"hists":{}})");
}

// ---- Latency histograms -----------------------------------------------------

TEST(LatencyHistogram, QuantilesBoundedByHalfOctaveBuckets) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.quantile_us(0.5), 0U);
  for (std::uint64_t us = 1; us <= 1000; ++us) h.record_us(us);
  EXPECT_EQ(h.count(), 1000U);
  EXPECT_EQ(h.max_us(), 1000U);
  // Half-octave buckets overestimate by at most ~50% of the true quantile
  // (bucket upper bound vs any sample inside it), and never exceed the max.
  const std::uint64_t p50 = h.quantile_us(0.5);
  EXPECT_GE(p50, 500U);
  EXPECT_LE(p50, 511U);  // 500 falls in half-octave [384,511]; upper bound reported
  EXPECT_LE(h.quantile_us(0.999), 1000U);
  EXPECT_EQ(h.quantile_us(1.0), 1000U);
}

TEST(LatencyHistogram, MergeAndResetFold) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record_us(10);
  b.record_us(5000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_EQ(a.max_us(), 5000U);
  a.reset();
  EXPECT_EQ(a.count(), 0U);
  EXPECT_EQ(a.max_us(), 0U);
}

TEST(LatencyHistogram, RegistryHandlesAreStableAcrossInserts) {
  Metrics m;
  LatencyHistogram& first = m.histogram("z.op_us");
  first.record_us(3);
  // Inserting more names must not invalidate the earlier handle.
  for (int i = 0; i < 32; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    m.histogram(name).record_us(1);
  }
  first.record_us(4);
  EXPECT_EQ(m.histogram("z.op_us").count(), 2U);
  EXPECT_EQ(m.histogram_names().size(), 33U);
  m.record_us("z.op_us", std::chrono::microseconds{100});
  EXPECT_EQ(m.histogram("z.op_us").count(), 3U);
}

TEST(LatencyHistogram, MetricsMergeFoldsHistograms) {
  Metrics a;
  Metrics b;
  a.histogram("op_us").record_us(10);
  b.histogram("op_us").record_us(20);
  b.histogram("only_b_us").record_us(1);
  a.merge(b);
  EXPECT_EQ(a.histogram("op_us").count(), 2U);
  EXPECT_EQ(a.histogram("op_us").max_us(), 20U);
  EXPECT_EQ(a.histogram("only_b_us").count(), 1U);
}

TEST(Metrics, ConcurrentRecordingIsSafe) {
  Metrics m;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) {
        m.add("hits");
        m.observe("lat", 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(m.counter("hits"), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.timer("lat").count(), static_cast<std::size_t>(kThreads * kPerThread));
}

// ---- Sim vs cluster parity ------------------------------------------------------

/// The same protocol code records into the registry under either backend, so
/// one write + one read (n = 3, SWMR) must produce identical counter VALUES
/// and identical timer key sets with identical sample counts. Only the
/// latency numbers differ (simulated vs wall time).
TEST(MetricsParity, SimAndClusterRecordTheSameKeys) {
  // Simulator side.
  Metrics sim_metrics;
  harness::DeployOptions options;
  options.n = 3;
  options.seed = 3;
  options.client.metrics = &sim_metrics;
  harness::SimDeployment d{std::move(options)};
  d.write_at(TimePoint{0}, 0, 0, 5);
  d.read_at(TimePoint{1s}, 1, 0);
  d.run();

  // Cluster side: same protocol, same ops.
  Metrics cluster_metrics;
  auto quorums = std::make_shared<const quorum::MajorityQuorum>(3);
  abd::ClientOptions client_options;
  client_options.metrics = &cluster_metrics;
  std::vector<abd::Node*> nodes(3, nullptr);
  runtime::ClusterOptions cluster_options;
  cluster_options.num_processes = 3;
  cluster_options.seed = 3;
  runtime::Cluster cluster{cluster_options, [&](ProcessId p) -> std::unique_ptr<Actor> {
                             auto node = std::make_unique<abd::Node>(
                                 abd::NodeOptions{quorums, abd::ReadMode::kAtomic,
                                                  abd::WriteMode::kSingleWriter,
                                                  client_options});
                             nodes[p] = node.get();
                             return node;
                           }};
  cluster.start();
  {
    runtime::SyncRegister writer{cluster, 0, *nodes[0]};
    runtime::SyncRegister reader{cluster, 1, *nodes[1]};
    ASSERT_TRUE(writer.write(0, Value{.data = 5}, 5s).has_value());
    ASSERT_TRUE(reader.read(0, 5s).has_value());
  }
  cluster.stop();

  // Counters agree exactly: broadcast contact sends the same requests under
  // either scheduler.
  EXPECT_EQ(sim_metrics.counter_names(), cluster_metrics.counter_names());
  for (const std::string& name : sim_metrics.counter_names()) {
    EXPECT_EQ(sim_metrics.counter(name), cluster_metrics.counter(name)) << name;
  }
  EXPECT_EQ(sim_metrics.counter("client.ops_completed"), 2U);
  EXPECT_EQ(sim_metrics.counter("client.messages_sent"), 9U);  // 3 phases x n=3

  // Timers agree on keys and sample counts.
  EXPECT_EQ(sim_metrics.timer_names(), cluster_metrics.timer_names());
  for (const std::string& name : sim_metrics.timer_names()) {
    EXPECT_EQ(sim_metrics.timer(name).count(), cluster_metrics.timer(name).count())
        << name;
  }
  EXPECT_EQ(sim_metrics.timer("op.read_us").count(), 1U);
  EXPECT_EQ(sim_metrics.timer("op.write_swmr_us").count(), 1U);
  EXPECT_EQ(sim_metrics.timer("phase.value_collect_us").count(), 1U);
  EXPECT_EQ(sim_metrics.timer("phase.ack_collect_us").count(), 2U);  // write + write-back
}

// ---- Cluster event tracing --------------------------------------------------

TEST(ClusterTrace, RecordsProtocolEventsAndRoundTripsJsonl) {
  auto quorums = std::make_shared<const quorum::MajorityQuorum>(3);
  std::vector<abd::Node*> nodes(3, nullptr);
  runtime::ClusterOptions options;
  options.num_processes = 3;
  options.seed = 9;
  runtime::Cluster cluster{options, [&](ProcessId p) -> std::unique_ptr<Actor> {
                             auto node = std::make_unique<abd::Node>(
                                 abd::NodeOptions{quorums, abd::ReadMode::kAtomic,
                                                  abd::WriteMode::kSingleWriter});
                             nodes[p] = node.get();
                             return node;
                           }};
  trace::ClusterRecorder recorder;
  recorder.attach(cluster);  // must precede start()
  cluster.start();
  {
    runtime::SyncRegister writer{cluster, 0, *nodes[0]};
    runtime::SyncRegister reader{cluster, 2, *nodes[2]};
    ASSERT_TRUE(writer.write(0, Value{.data = 8}, 5s).has_value());
    ASSERT_TRUE(reader.read(0, 5s).has_value());
  }
  cluster.stop();

  // One SWMR write (1 phase) + one atomic read (2 phases) over n=3,
  // broadcast contact: 9 request sends, and every reply is a send too. Each
  // phase completes at quorum (2 of 3), so a straggler reply can race stop();
  // bound the counts instead of pinning them.
  const std::size_t sends = recorder.filtered("send").size();
  const std::size_t delivers = recorder.filtered("deliver").size();
  EXPECT_GE(sends, 9U);           // at least the protocol requests
  EXPECT_LE(sends, 18U);          // at most requests + one reply each
  EXPECT_GE(delivers, 12U);       // >= 2 request + 2 reply deliveries per phase
  EXPECT_LE(delivers, sends);     // nothing delivered that was never sent
  EXPECT_GE(recorder.filtered("post").size(), 2U);  // the two SyncRegister ops
  EXPECT_TRUE(recorder.filtered("drop").empty());

  // Same Record shape as the simulator's recorder -> same JSONL round trip.
  const std::vector<trace::Record> records = recorder.records();
  const std::string jsonl = trace::to_jsonl(records);
  const auto parsed = trace::parse_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, records);
}

TEST(ClusterTrace, ObserverSeesCrashAndDrop) {
  auto quorums = std::make_shared<const quorum::MajorityQuorum>(3);
  std::vector<abd::Node*> nodes(3, nullptr);
  runtime::ClusterOptions options;
  options.num_processes = 3;
  runtime::Cluster cluster{options, [&](ProcessId p) -> std::unique_ptr<Actor> {
                             auto node = std::make_unique<abd::Node>(
                                 abd::NodeOptions{quorums, abd::ReadMode::kAtomic,
                                                  abd::WriteMode::kSingleWriter});
                             nodes[p] = node.get();
                             return node;
                           }};
  trace::ClusterRecorder recorder;
  recorder.attach(cluster);
  cluster.start();
  cluster.crash(2);
  {
    runtime::SyncRegister writer{cluster, 0, *nodes[0]};
    ASSERT_TRUE(writer.write(0, Value{.data = 1}, 5s).has_value());
  }
  cluster.stop();

  EXPECT_EQ(recorder.filtered("crash").size(), 1U);
  // The broadcast to the crashed replica is dropped, not sent. Both live
  // replicas must reply before the write's quorum (2 of the 2 alive) is met,
  // so exactly 2 request sends + 2 reply sends happen before stop().
  EXPECT_EQ(recorder.filtered("drop").size(), 1U);
  EXPECT_EQ(recorder.filtered("send").size(), 4U);
}

TEST(ClusterTrace, ObserverAfterStartIsRejected) {
  runtime::ClusterOptions options;
  options.num_processes = 1;
  runtime::Cluster cluster{options, [](ProcessId) -> std::unique_ptr<Actor> {
                             auto quorums =
                                 std::make_shared<const quorum::MajorityQuorum>(1);
                             return std::make_unique<abd::Node>(abd::NodeOptions{quorums});
                           }};
  cluster.start();
  EXPECT_THROW(cluster.set_observer([](const runtime::ClusterEvent&) {}),
               std::logic_error);
  cluster.stop();
}

}  // namespace
}  // namespace abdkit

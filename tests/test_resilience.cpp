// Resilience-threshold tests (the paper's n > 2f bound and its optimality):
// operations complete with any minority of replicas crashed, stall with any
// majority gone, and safety is never traded for liveness under partitions —
// the empirical face of the partition/indistinguishability argument.
#include <gtest/gtest.h>

#include <chrono>
#include <tuple>

#include "abdkit/checker/linearizability.hpp"
#include "abdkit/harness/deployment.hpp"

namespace abdkit {
namespace {

using namespace std::chrono_literals;
using harness::DeployOptions;
using harness::SimDeployment;
using harness::Variant;

/// (n, crashes): ops complete iff crashes <= (n-1)/2.
class CrashThreshold
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CrashThreshold, OpsCompleteExactlyWhenMinorityCrashed) {
  const auto [n, crashes] = GetParam();
  DeployOptions options;
  options.n = n;
  options.seed = n * 100 + crashes;
  SimDeployment d{std::move(options)};

  // Crash the tail `crashes` replicas before any traffic.
  for (std::size_t i = 0; i < crashes; ++i) {
    d.crash_at(TimePoint{0}, static_cast<ProcessId>(n - 1 - i));
  }
  d.write_at(TimePoint{1ms}, 0, 0, 1);
  d.read_at(TimePoint{2s}, 0, 0);
  d.run();

  const bool should_complete = crashes <= (n - 1) / 2;
  if (should_complete) {
    EXPECT_EQ(d.completed_ops(), 2U) << "n=" << n << " f=" << crashes;
    EXPECT_EQ(d.stalled_ops(), 0U);
  } else {
    EXPECT_EQ(d.completed_ops(), 0U) << "n=" << n << " f=" << crashes;
    EXPECT_EQ(d.stalled_ops(), 2U);
  }
}

std::vector<std::tuple<std::size_t, std::size_t>> threshold_cases() {
  std::vector<std::tuple<std::size_t, std::size_t>> cases;
  for (std::size_t n = 2; n <= 9; ++n) {
    for (std::size_t f = 0; f < n; ++f) cases.emplace_back(n, f);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashThreshold, ::testing::ValuesIn(threshold_cases()),
                         [](const auto& param_info) {
                           std::string name = "n";
                           name += std::to_string(std::get<0>(param_info.param));
                           name += "_f";
                           name += std::to_string(std::get<1>(param_info.param));
                           return name;
                         });

TEST(Resilience, MinoritySideOfPartitionStalls) {
  // 5 processes split {0,1} | {2,3,4}: the minority side can make no
  // progress, the majority side is unaffected.
  SimDeployment d{DeployOptions{.n = 5, .seed = 3}};
  d.partition_at(TimePoint{0}, {{0, 1}, {2, 3, 4}});
  d.read_at(TimePoint{1ms}, 0, 0);  // minority side
  std::optional<abd::OpResult> majority_read;
  d.read_at(TimePoint{1ms}, 3, 0,
            [&](const abd::OpResult& r) { majority_read = r; });
  d.run();
  EXPECT_EQ(d.stalled_ops(), 1U);
  ASSERT_TRUE(majority_read.has_value());
}

TEST(Resilience, EvenSplitStallsBothSides) {
  // n=4 split 2|2: neither side holds a majority — the configuration behind
  // the n <= 2f impossibility (each side must suspect the other crashed).
  SimDeployment d{DeployOptions{.n = 4, .seed = 4}};
  d.partition_at(TimePoint{0}, {{0, 1}, {2, 3}});
  d.read_at(TimePoint{1ms}, 0, 0);
  d.read_at(TimePoint{1ms}, 2, 0);
  d.run();
  EXPECT_EQ(d.completed_ops(), 0U);
  EXPECT_EQ(d.stalled_ops(), 2U);
}

TEST(Resilience, HealedPartitionCompletesStalledOps) {
  // Safety over liveness: the stalled operation simply waits; once the
  // partition heals it completes — no protocol restart, no lost writes.
  SimDeployment d{DeployOptions{.n = 5, .seed = 5}};
  d.write_at(TimePoint{0}, 0, 0, 7);  // completes pre-partition
  d.partition_at(TimePoint{100ms}, {{0, 1}, {2, 3, 4}});
  std::optional<abd::OpResult> read_result;
  d.read_at(TimePoint{200ms}, 0, 0, [&](const abd::OpResult& r) { read_result = r; });
  d.heal_at(TimePoint{5s});
  d.run();
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->value.data, 7);
  EXPECT_GE(read_result->responded, TimePoint{5s});
  EXPECT_TRUE(checker::check_linearizable(d.history()).linearizable);
}

TEST(Resilience, WritesDuringPartitionRemainAtomicAfterHeal) {
  // Writer on the majority side keeps writing during the partition; the
  // minority-side reader that was stalled must return a value consistent
  // with linearizability once healed.
  SimDeployment d{DeployOptions{.n = 5, .seed = 6}};
  d.write_at(TimePoint{0}, 0, 0, 1);
  d.partition_at(TimePoint{100ms}, {{4}, {0, 1, 2, 3}});
  d.read_at(TimePoint{200ms}, 4, 0);  // stalls until heal
  d.write_at(TimePoint{300ms}, 0, 0, 2);
  d.write_at(TimePoint{400ms}, 0, 0, 3);
  d.heal_at(TimePoint{1s});
  d.run();
  EXPECT_EQ(d.stalled_ops(), 0U);
  EXPECT_TRUE(checker::check_linearizable(d.history()).linearizable)
      << checker::check_linearizable(d.history()).explanation;
}

TEST(Resilience, SafetyHoldsEvenWhenLivenessLost) {
  // With a majority crashed, ops stall — but whatever completed beforehand
  // still forms a linearizable history (safety is unconditional).
  SimDeployment d{DeployOptions{.n = 5, .seed = 7}};
  d.write_at(TimePoint{0}, 0, 0, 10);
  d.read_at(TimePoint{50ms}, 1, 0);
  for (ProcessId p = 2; p < 5; ++p) d.crash_at(TimePoint{100ms}, p);
  d.write_at(TimePoint{200ms}, 0, 0, 11);  // stalls
  d.read_at(TimePoint{300ms}, 1, 0);       // stalls
  d.run();
  EXPECT_EQ(d.completed_ops(), 2U);
  EXPECT_EQ(d.stalled_ops(), 2U);
  EXPECT_TRUE(checker::check_linearizable(d.history()).linearizable);
}

TEST(Resilience, CrashedReplicaAcksNeverCount) {
  // Crash exactly at the moment a write is broadcast: in-flight requests to
  // the dead replica are dropped, and the write still completes off the
  // remaining majority.
  SimDeployment d{DeployOptions{.n = 3, .seed = 8}};
  std::optional<abd::OpResult> write_result;
  d.crash_at(TimePoint{1ms}, 2);
  d.write_at(TimePoint{1ms}, 0, 0, 5, [&](const abd::OpResult& r) { write_result = r; });
  d.run();
  ASSERT_TRUE(write_result.has_value());
}

TEST(Resilience, FiveNinesAvailabilityNeedsOnlyMajority) {
  // f = 2 of n = 5 crash mid-workload at different times; every operation
  // by survivors completes.
  SimDeployment d{DeployOptions{.n = 5, .seed = 9}};
  d.crash_at(TimePoint{5ms}, 3);
  d.crash_at(TimePoint{12ms}, 4);
  for (int i = 0; i < 20; ++i) {
    d.write_at(TimePoint{i * 2ms}, 0, 0, i + 1);
    d.read_at(TimePoint{i * 2ms + 1ms}, 1, 0);
  }
  d.run();
  EXPECT_EQ(d.stalled_ops(), 0U);
  EXPECT_EQ(d.completed_ops(), 40U);
  EXPECT_TRUE(checker::check_linearizable(d.history()).linearizable)
      << checker::check_linearizable(d.history()).explanation;
}

}  // namespace
}  // namespace abdkit

// Fast-path reads: skipping the write-back when the read quorum is
// unanimous. Safety: a unanimous quorum already IS what the write-back
// would establish. These tests check the round-count win, that contention
// falls back to two rounds (found by a seed scan), and — the crucial part —
// that atomicity holds across randomized sweeps with the optimization
// enabled.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>

#include "abdkit/abd/client.hpp"
#include "abdkit/abd/strategy.hpp"
#include "abdkit/checker/linearizability.hpp"
#include "abdkit/checker/register_checks.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/harness/deployment.hpp"
#include "abdkit/harness/workload.hpp"
#include "abdkit/quorum/quorum_system.hpp"

namespace abdkit {
namespace {

using namespace std::chrono_literals;
using harness::DeployOptions;
using harness::SimDeployment;
using harness::Variant;

DeployOptions fast(std::size_t n, std::uint64_t seed) {
  DeployOptions options;
  options.n = n;
  options.seed = seed;
  options.client.variant = abd::ProtocolVariant::kUnanimousFastPath;
  return options;
}

TEST(FastPath, QuietReadIsOneRound) {
  SimDeployment d{fast(5, 1)};
  std::optional<abd::OpResult> read_result;
  d.write_at(TimePoint{0}, 0, 0, 7);
  // Long after the write: every replica holds the same tag -> unanimous.
  d.read_at(TimePoint{1s}, 2, 0, [&](const abd::OpResult& r) { read_result = r; });
  d.run();
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->value.data, 7);
  EXPECT_EQ(read_result->rounds, 1U);
  EXPECT_EQ(read_result->messages_sent, 5U);  // no write-back broadcast
}

TEST(FastPath, DisabledByDefault) {
  SimDeployment d{DeployOptions{.n = 5, .seed = 3}};
  std::optional<abd::OpResult> read_result;
  d.write_at(TimePoint{0}, 0, 0, 7);
  d.read_at(TimePoint{1s}, 2, 0, [&](const abd::OpResult& r) { read_result = r; });
  d.run();
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->rounds, 2U);  // paper protocol: always write back
}

class FastPathAtomicity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathAtomicity, SweepsStayLinearizable) {
  const std::uint64_t seed = GetParam();
  DeployOptions options = fast(5, seed);
  options.delay = std::make_unique<sim::HeavyTailDelay>(100us, 1.2);
  SimDeployment d{std::move(options)};

  harness::WorkloadOptions workload;
  workload.writers = {0};
  workload.readers = {1, 2, 3, 4};
  workload.ops_per_process = 20;
  workload.read_fraction = 0.7;
  workload.seed = seed;
  harness::schedule_closed_loop(d, workload);
  d.run();

  EXPECT_EQ(d.stalled_ops(), 0U);
  EXPECT_TRUE(checker::check_linearizable(d.history()).linearizable)
      << "seed " << seed << ": " << checker::check_linearizable(d.history()).explanation;
  EXPECT_EQ(checker::find_inversions(d.history()).count, 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathAtomicity,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

TEST(FastPath, MwmrSweepsStayLinearizable) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DeployOptions options = fast(5, seed);
    options.variant = Variant::kAtomicMwmr;
    SimDeployment d{std::move(options)};
    harness::WorkloadOptions workload;
    workload.writers = {0, 1, 2};
    workload.readers = {3, 4};
    workload.ops_per_process = 12;
    workload.seed = seed;
    harness::schedule_closed_loop(d, workload);
    d.run();
    EXPECT_TRUE(checker::check_linearizable(d.history()).linearizable) << seed;
  }
}

TEST(FastPath, WorksWithCrashes) {
  SimDeployment d{fast(5, 9)};
  d.crash_at(TimePoint{0}, 3);
  d.crash_at(TimePoint{0}, 4);
  std::optional<abd::OpResult> read_result;
  d.write_at(TimePoint{0}, 0, 0, 5);
  d.read_at(TimePoint{1s}, 1, 0, [&](const abd::OpResult& r) { read_result = r; });
  d.run();
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->value.data, 5);
  EXPECT_EQ(read_result->rounds, 1U);  // the 3 survivors agree
}

// ---- Suppression observability (PR 6) ---------------------------------------------
//
// The pre-PR-6 predicate silently fell back to 2-RTT reads when
// byzantine_f > 0 or the read mode mismatched — a deployment that
// configured the fast path could pay double latency on every read with
// nothing observable. Each suppressed fast return now increments the
// "abd.fast_path_suppressed" metrics counter and records a reason.

TEST(FastPathSuppression, QuietFastReadLeavesCounterZero) {
  Metrics metrics;
  DeployOptions options = fast(5, 11);
  options.client.metrics = &metrics;
  SimDeployment d{std::move(options)};
  std::optional<abd::OpResult> read_result;
  d.write_at(TimePoint{0}, 0, 0, 7);
  d.read_at(TimePoint{1s}, 2, 0, [&](const abd::OpResult& r) { read_result = r; });
  d.run();
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->rounds, 1U);
  EXPECT_EQ(metrics.counter("abd.fast_path_suppressed"), 0U);
}

TEST(FastPathSuppression, ByzantineModeCountsEverySuppressedRead) {
  // Masking configuration (n=5, f=1) with the fast path requested: masking
  // reads must write back, so every read counts one suppression.
  Metrics metrics;
  DeployOptions options;
  options.n = 5;
  options.seed = 12;
  options.quorums = std::make_shared<const quorum::MaskingQuorum>(5, 1);
  options.client.byzantine_f = 1;
  options.client.variant = abd::ProtocolVariant::kUnanimousFastPath;
  options.client.metrics = &metrics;
  SimDeployment d{std::move(options)};
  std::optional<abd::OpResult> read_result;
  d.write_at(TimePoint{0}, 0, 0, 7);
  d.read_at(TimePoint{1s}, 1, 0, [&](const abd::OpResult& r) { read_result = r; });
  d.run();
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->value.data, 7);
  EXPECT_EQ(read_result->rounds, 2U);  // no fast return in masking mode
  EXPECT_EQ(metrics.counter("abd.fast_path_suppressed"), 1U);
}

TEST(FastPathSuppression, RegularReadModeIsSurfacedAsConfigNoOp) {
  // Regular reads never write back; a fast-path variant on top of them
  // changes nothing — the suppression counter surfaces the useless config.
  Metrics metrics;
  DeployOptions options = fast(5, 13);
  options.variant = Variant::kRegularSwmr;
  options.client.metrics = &metrics;
  SimDeployment d{std::move(options)};
  std::optional<abd::OpResult> read_result;
  d.write_at(TimePoint{0}, 0, 0, 7);
  d.read_at(TimePoint{1s}, 2, 0, [&](const abd::OpResult& r) { read_result = r; });
  d.run();
  ASSERT_TRUE(read_result.has_value());
  EXPECT_EQ(read_result->rounds, 1U);  // regular reads are 1 round anyway
  EXPECT_EQ(metrics.counter("abd.fast_path_suppressed"), 1U);
}

TEST(FastPathSuppression, DivergentFallbackIncrementsCounter) {
  // A read racing a slow write: when its replies disagree it pays 2 rounds
  // (the write-back runs), and exactly one suppression is counted.
  // Scans seeds until the race actually produces divergent replies, so the
  // assertion is non-vacuous.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Metrics metrics;
    DeployOptions options = fast(5, seed);
    options.delay = std::make_unique<sim::UniformDelay>(100us, 20ms);
    options.client.metrics = &metrics;
    SimDeployment d{std::move(options)};
    std::optional<abd::OpResult> read_result;
    d.write_at(TimePoint{0}, 0, 0, 1);
    d.read_at(TimePoint{5ms}, 1, 0,
              [&](const abd::OpResult& r) { read_result = r; });
    d.run();
    ASSERT_TRUE(read_result.has_value());
    if (read_result->rounds == 1) {
      EXPECT_EQ(metrics.counter("abd.fast_path_suppressed"), 0U) << seed;
      continue;
    }
    EXPECT_EQ(read_result->rounds, 2U) << seed;
    EXPECT_EQ(metrics.counter("abd.fast_path_suppressed"), 1U) << seed;
    return;  // found the contended interleaving and asserted on it
  }
  FAIL() << "no seed in [1,50] produced a contended read";
}

// The decision logic itself, variant by variant (pure unit tests against
// abd::ReadStrategy — no deployment).
TEST(FastPathSuppression, StrategyReportsReasons) {
  using abd::FastPathSuppression;
  using abd::ProtocolVariant;
  using abd::ReadDecision;

  abd::ReadStrategy baseline{ProtocolVariant::kBaseline};
  EXPECT_FALSE(baseline.fast_capable());
  ReadDecision d = baseline.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, true);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kNone);  // nothing requested

  abd::ReadStrategy fast_path{ProtocolVariant::kUnanimousFastPath};
  d = fast_path.on_collect_complete(true, 1, 0, abd::Tag{3, 1}, true);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kByzantineMode);
  d = fast_path.on_collect_complete(false, 0, 0, abd::Tag{3, 1}, true);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kRegularReadMode);
  d = fast_path.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kDivergentReplies);
  d = fast_path.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, true);
  EXPECT_TRUE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kNone);

  // kTimeEfficient: a divergent quorum whose maximum equals a tag this
  // client committed fast-returns; a higher (uncommitted) maximum falls
  // back.
  abd::ReadStrategy te{ProtocolVariant::kTimeEfficient};
  d = te.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false);
  EXPECT_FALSE(d.fast);
  te.note_committed(0, abd::Tag{3, 1});
  d = te.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false);
  EXPECT_TRUE(d.fast);
  d = te.on_collect_complete(true, 0, 0, abd::Tag{4, 1}, false);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kDivergentReplies);
  // Commits only grow: a stale note cannot lower the cache.
  te.note_committed(0, abd::Tag{2, 1});
  d = te.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false);
  EXPECT_TRUE(d.fast);
  // Other objects are independent.
  d = te.on_collect_complete(true, 0, 7, abd::Tag{3, 1}, false);
  EXPECT_FALSE(d.fast);
}

TEST(FastPathSuppression, VariantNamesRoundTrip) {
  using abd::ProtocolVariant;
  for (const auto v :
       {ProtocolVariant::kBaseline, ProtocolVariant::kUnanimousFastPath,
        ProtocolVariant::kTimeEfficient, ProtocolVariant::kTwoBit,
        ProtocolVariant::kImbs}) {
    ASSERT_TRUE(abd::parse_variant(abd::to_string(v)).has_value());
    EXPECT_EQ(*abd::parse_variant(abd::to_string(v)), v);
  }
  EXPECT_EQ(*abd::parse_variant("unanimous-fast-path"),
            ProtocolVariant::kUnanimousFastPath);
  EXPECT_FALSE(abd::parse_variant("bogus").has_value());
}

// kImbs (PROTOCOL.md §12): f+1 counted replies at the collect maximum are a
// witness set, so the read fast-returns without unanimity — and one reply
// short of the threshold must fall back.
TEST(ImbsStrategy, WitnessThresholdGatesFastReturn) {
  using abd::FastPathSuppression;
  abd::ReadStrategy imbs{abd::ProtocolVariant::kImbs, /*resilience_f=*/1};
  EXPECT_TRUE(imbs.fast_capable());

  // f+1 = 2 holders of the maximum: fast even though the quorum diverged.
  abd::ReadDecision d =
      imbs.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false, 2);
  EXPECT_TRUE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kNone);

  // A lone holder is not a witness set: correct fallback, surfaced.
  d = imbs.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false, 1);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kDivergentReplies);

  // The threshold tracks f, not a constant.
  abd::ReadStrategy wider{abd::ProtocolVariant::kImbs, /*resilience_f=*/2};
  d = wider.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false, 2);
  EXPECT_FALSE(d.fast);
  d = wider.on_collect_complete(true, 0, 0, abd::Tag{3, 1}, false, 3);
  EXPECT_TRUE(d.fast);

  // The family-wide suppressions outrank the witness rule: masking mode
  // and regular-mode reads never fast-return, whatever the vote count.
  d = imbs.on_collect_complete(true, 1, 0, abd::Tag{3, 1}, false, 2);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kByzantineMode);
  d = imbs.on_collect_complete(false, 0, 0, abd::Tag{3, 1}, false, 2);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.suppression, FastPathSuppression::kRegularReadMode);
}

// Attach-time validation world: no traffic ever flows through it.
class StubContext final : public Context {
 public:
  explicit StubContext(std::size_t world) : world_{world} {}
  [[nodiscard]] ProcessId self() const noexcept override { return 99; }
  [[nodiscard]] std::size_t world_size() const noexcept override { return world_; }
  void send(ProcessId, PayloadPtr) override {}
  void broadcast(PayloadPtr) override {}
  TimerId set_timer(Duration, TimerCallback) override { return 0; }
  void cancel_timer(TimerId) override {}
  [[nodiscard]] TimePoint now() const noexcept override { return {}; }

 private:
  std::size_t world_;
};

// The witness argument needs a declared crash budget, n >= 3f+1, and read
// quorums of size >= n-f; a client configured outside those bounds must be
// rejected at attach, not allowed to serve unsafe 1-round reads.
TEST(ImbsStrategy, AttachRejectsInvalidResilienceConfigs) {
  abd::ClientOptions options;
  options.variant = abd::ProtocolVariant::kImbs;

  {  // f == 0: no budget declared.
    abd::Client client{std::make_shared<quorum::MajorityQuorum>(4),
                       abd::ReadMode::kAtomic, options};
    StubContext ctx{4};
    EXPECT_THROW(client.attach(ctx), std::invalid_argument);
  }
  options.resilience_f = 1;
  {  // n = 3 < 3f+1 = 4.
    abd::Client client{std::make_shared<quorum::MajorityQuorum>(3),
                       abd::ReadMode::kAtomic, options};
    StubContext ctx{3};
    EXPECT_THROW(client.attach(ctx), std::invalid_argument);
  }
  {  // n = 4, f = 1: the natural minimum deployment attaches cleanly
     // (majority read quorums span 3 = n-f processes).
    abd::Client client{std::make_shared<quorum::MajorityQuorum>(4),
                       abd::ReadMode::kAtomic, options};
    StubContext ctx{4};
    EXPECT_NO_THROW(client.attach(ctx));
  }
  options.resilience_f = 2;
  {  // n = 7 >= 3f+1, but majority read quorums span only 4 < n-f = 5
     // processes — too narrow for the intersection argument.
    abd::Client client{std::make_shared<quorum::MajorityQuorum>(7),
                       abd::ReadMode::kAtomic, options};
    StubContext ctx{7};
    EXPECT_THROW(client.attach(ctx), std::invalid_argument);
  }
}

}  // namespace
}  // namespace abdkit

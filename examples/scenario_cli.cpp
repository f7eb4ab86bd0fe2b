// Scenario runner: explore ABD configurations from the command line.
//
//   $ ./scenario_cli --n 7 --variant mwmr --writers 3 --ops 50
//                    --crash 2 --loss 0.2 --seed 42     (one line)
//
// Deploys the chosen protocol over the simulator, runs a closed-loop
// workload, injects the requested faults, and reports completion, message
// cost, latency, and the linearizability verdict. Bad flags or values print
// usage and exit 2.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>

#include "abdkit/checker/linearizability.hpp"
#include "abdkit/checker/register_checks.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/common/stats.hpp"
#include "abdkit/harness/deployment.hpp"
#include "abdkit/harness/workload.hpp"

using namespace std::chrono_literals;
using namespace abdkit;

namespace {

struct Args {
  std::size_t n{5};
  std::string variant{"swmr"};
  std::size_t writers{1};
  std::size_t ops{25};
  std::size_t crash{0};
  double loss{0.0};
  double read_fraction{0.6};
  std::uint64_t seed{1};
  bool metrics{false};
  bool help{false};
};

void usage() {
  std::printf(
      "usage: scenario_cli [options]\n"
      "  --n N            processes, at least 1 (default 5)\n"
      "  --variant V      swmr | mwmr | regular | bounded (default swmr)\n"
      "  --writers W      writing processes, mwmr only, at most N (default 1)\n"
      "  --ops K          ops per participating process (default 25)\n"
      "  --crash C        replicas crashed at t=0 (default 0)\n"
      "  --loss P         message loss probability in [0, 1]; enables retransmission\n"
      "  --read-frac F    read fraction in [0, 1] for reader-writers (default 0.6)\n"
      "  --seed S         rng seed (default 1)\n"
      "  --metrics        print client metrics (phase/op timers, counters) as JSON\n");
}

/// Parses all of `text` as a number: no sign on unsigned types, no leading
/// blanks, no trailing characters, no overflow.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }  // false for NaN

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") {
      args.help = true;
      return true;
    }
    if (flag == "--metrics") {  // boolean flag: consumes no value
      args.metrics = true;
      continue;
    }
    const char* value = next();
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    bool valid = true;
    if (flag == "--n") {
      valid = parse_number(value, args.n) && args.n >= 1;
    } else if (flag == "--variant") {
      args.variant = value;
    } else if (flag == "--writers") {
      valid = parse_number(value, args.writers);
    } else if (flag == "--ops") {
      valid = parse_number(value, args.ops);
    } else if (flag == "--crash") {
      valid = parse_number(value, args.crash);
    } else if (flag == "--loss") {
      valid = parse_number(value, args.loss) && is_probability(args.loss);
    } else if (flag == "--read-frac") {
      valid = parse_number(value, args.read_fraction) &&
              is_probability(args.read_fraction);
    } else if (flag == "--seed") {
      valid = parse_number(value, args.seed);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!valid) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", flag.c_str(), value);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  if (args.help) {
    usage();
    return 0;
  }

  Metrics metrics;
  harness::DeployOptions options;
  options.n = args.n;
  options.seed = args.seed;
  options.loss_probability = args.loss;
  if (args.metrics) options.client.metrics = &metrics;
  if (args.loss > 0.0) options.client.retransmit_interval = 3ms;
  if (args.variant == "swmr") {
    options.variant = harness::Variant::kAtomicSwmr;
  } else if (args.variant == "mwmr") {
    options.variant = harness::Variant::kAtomicMwmr;
  } else if (args.variant == "regular") {
    options.variant = harness::Variant::kRegularSwmr;
  } else if (args.variant == "bounded") {
    options.variant = harness::Variant::kBoundedSwmr;
  } else {
    std::fprintf(stderr, "unknown variant %s\n", args.variant.c_str());
    return 2;
  }
  const harness::Variant variant = options.variant;
  const bool swmr_family = variant != harness::Variant::kAtomicMwmr;
  const std::size_t writers = swmr_family ? 1 : std::max<std::size_t>(1, args.writers);
  if (writers > args.n) {
    std::fprintf(stderr, "--writers %zu exceeds --n %zu\n", writers, args.n);
    usage();
    return 2;
  }

  harness::SimDeployment d{std::move(options)};
  for (std::size_t i = 0; i < args.crash && i + 1 < args.n; ++i) {
    d.crash_at(TimePoint{0}, static_cast<ProcessId>(args.n - 1 - i));
  }

  harness::WorkloadOptions workload;
  for (std::size_t w = 0; w < writers; ++w) {
    workload.writers.push_back(static_cast<ProcessId>(w));
  }
  for (ProcessId p = 0; p < args.n; ++p) workload.readers.push_back(p);
  workload.ops_per_process = args.ops;
  workload.read_fraction = args.read_fraction;
  workload.seed = args.seed;
  harness::schedule_closed_loop(d, workload);

  if (args.crash * 2 >= args.n) {
    // A majority is dead: run bounded, or quiescence may never come with
    // retransmission on.
    d.run_until(TimePoint{10s});
    d.finalize_history();
  } else {
    d.run();
  }

  Summary reads_us;
  Summary writes_us;
  for (const auto& op : d.history().ops()) {
    if (!op.completed) continue;
    const double us = static_cast<double>((op.responded - op.invoked).count()) / 1e3;
    (op.type == checker::OpType::kRead ? reads_us : writes_us).add(us);
  }

  std::printf("deployment: n=%zu variant=%s crash=%zu loss=%.2f seed=%llu\n", args.n,
              args.variant.c_str(), args.crash, args.loss,
              static_cast<unsigned long long>(args.seed));
  std::printf("ops:        %llu completed, %llu stalled\n",
              static_cast<unsigned long long>(d.completed_ops()),
              static_cast<unsigned long long>(d.stalled_ops()));
  std::printf("messages:   %llu sent (%llu lost), %.1f per completed op\n",
              static_cast<unsigned long long>(d.world().stats().messages_sent),
              static_cast<unsigned long long>(d.world().stats().messages_lost),
              d.completed_ops() > 0
                  ? static_cast<double>(d.world().stats().messages_sent) /
                        static_cast<double>(d.completed_ops())
                  : 0.0);
  if (!writes_us.empty()) std::printf("write us:   %s\n", writes_us.brief().c_str());
  if (!reads_us.empty()) std::printf("read us:    %s\n", reads_us.brief().c_str());
  if (args.metrics) std::printf("metrics %s\n", metrics.to_json().c_str());

  const auto report = checker::check_linearizable_per_object(d.history());
  std::printf("atomic:     %s\n", report.linearizable ? "yes" : "NO");
  if (!report.linearizable) std::printf("            %s\n", report.explanation.c_str());
  if (swmr_family && variant == harness::Variant::kRegularSwmr) {
    const auto inversions = checker::find_inversions(d.history());
    std::printf("inversions: %llu (regular baseline permits them)\n",
                static_cast<unsigned long long>(inversions.count));
  }
  return report.linearizable ||
                 // The regular baseline is EXPECTED to be non-atomic.
                 args.variant == "regular"
             ? 0
             : 1;
}

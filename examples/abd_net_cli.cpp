// abd_net_cli — drive reads/writes against abd_node replicas over real TCP.
//
//   $ ./abd_net_cli --id 3 --replicas 3
//       --peers 127.0.0.1:4100,127.0.0.1:4101,127.0.0.1:4102
//       --ops 20 --timeout-ms 5000 --seed 7
//
// The CLI is itself a protocol participant: a client with its own id
// (>= --replicas, with no slot in the peer table), it runs the ABD client
// quorum phases against the replica universe. It listens nowhere: each
// reply rides back on the connection its request went out on. The
// workload is a closed loop of multi-writer writes
// and atomic reads per object; every completed operation is recorded as a
// timed interval and the history is checker-verified (linearizability per
// object) before exit. Exits nonzero on any timeout or consistency
// violation, so scripts and CI can assert on it. Writes use the MWMR
// protocol, which discovers the installed tag first — re-invoking the CLI
// against a warm replica set is therefore safe.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/abd/sync_register.hpp"
#include "abdkit/abd/strategy.hpp"
#include "abdkit/checker/history.hpp"
#include "abdkit/checker/linearizability.hpp"
#include "abdkit/common/log.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/common/stats.hpp"
#include "abdkit/harness/workload.hpp"
#include "abdkit/net/transport.hpp"
#include "abdkit/quorum/quorum_system.hpp"
#include "abdkit/shard/router.hpp"
#include "abdkit/shard/shard_map.hpp"
#include "abdkit/wire/codec.hpp"

using namespace std::chrono_literals;
using namespace abdkit;

namespace {

struct Args {
  ProcessId id{kNoProcess};
  std::size_t replicas{0};
  std::size_t shards{1};
  std::string peers;
  std::size_t ops{20};
  std::size_t objects{2};
  std::uint64_t seed{1};
  long timeout_ms{5000};
  std::string variant{"baseline"};
  bool zipf{false};
  bool verbose{false};
  bool help{false};
};

void usage() {
  std::printf(
      "usage: abd_net_cli --id I --replicas R --peers h:p,... [options]\n"
      "  --id I           this client's process id (>= R; no --peers slot)\n"
      "  --replicas R     quorum universe size (first R peer entries)\n"
      "  --peers LIST     comma-separated host:port table of the replicas,\n"
      "                   index = process id\n"
      "  --shards S       treat the R replicas as S contiguous quorum groups of\n"
      "                   R/S (requires R %% S == 0) and route each object to its\n"
      "                   group — run the abd_node peers with the same flag\n"
      "                   (default 1: classic single-group client)\n"
      "  --ops K          write+read rounds to run (default 20)\n"
      "  --objects M      distinct registers to exercise (default 2)\n"
      "  --zipf           draw objects Zipf(0.99)-skewed over the --objects\n"
      "                   universe (rank 0 hottest) instead of round-robin\n"
      "  --timeout-ms T   per-operation timeout (default 5000)\n"
      "  --seed S         distinguishes values across invocations (default 1)\n"
      "  --variant V      protocol variant: baseline | fast-path | time-efficient\n"
      "                   | two-bit (two-bit also selects the compact wire\n"
      "                   envelope; run the abd_node peers with the same flag)\n"
      "  --verbose        log connection events\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const auto next_num = [&](auto& out) {
      const char* v = next();
      if (v == nullptr) return false;
      out = static_cast<std::remove_reference_t<decltype(out)>>(
          std::strtoull(v, nullptr, 10));
      return true;
    };
    if (flag == "--help" || flag == "-h") {
      args.help = true;
    } else if (flag == "--id") {
      if (!next_num(args.id)) return false;
    } else if (flag == "--replicas") {
      if (!next_num(args.replicas)) return false;
    } else if (flag == "--shards") {
      if (!next_num(args.shards)) return false;
    } else if (flag == "--zipf") {
      args.zipf = true;
    } else if (flag == "--peers") {
      const char* v = next();
      if (v == nullptr) return false;
      args.peers = v;
    } else if (flag == "--ops") {
      if (!next_num(args.ops)) return false;
    } else if (flag == "--objects") {
      if (!next_num(args.objects)) return false;
    } else if (flag == "--timeout-ms") {
      if (!next_num(args.timeout_ms)) return false;
    } else if (flag == "--seed") {
      if (!next_num(args.seed)) return false;
    } else if (flag == "--variant") {
      const char* v = next();
      if (v == nullptr) return false;
      args.variant = v;
    } else if (flag == "--verbose") {
      args.verbose = true;
    } else {
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
  std::vector<net::Address> table;
  if (!net::parse_address_list(args.peers, table) || args.replicas == 0 ||
      args.id == kNoProcess || args.id < args.replicas || table.size() < args.replicas ||
      args.objects == 0 || args.shards == 0 || args.replicas % args.shards != 0) {
    usage();
    return 2;
  }
  const std::optional<abd::ProtocolVariant> variant = abd::parse_variant(args.variant);
  if (!variant.has_value()) {
    std::fprintf(stderr, "abd_net_cli: unknown --variant '%s'\n", args.variant.c_str());
    usage();
    return 2;
  }
  if (args.verbose) set_log_level(LogLevel::kInfo);

  Metrics metrics;
  abd::NodeOptions node_options;
  node_options.quorums = std::make_shared<quorum::MajorityQuorum>(args.replicas);
  node_options.write_mode = abd::WriteMode::kMultiWriter;
  node_options.client.retransmit_interval = 100ms;
  node_options.client.metrics = &metrics;
  node_options.client.variant = *variant;

  net::TransportOptions options;
  options.self = args.id;
  options.world_size = args.replicas;
  options.metrics = &metrics;
  if (*variant == abd::ProtocolVariant::kTwoBit) {
    options.wire_format = wire::WireFormat::kCompact;
  }

  try {
    // --shards > 1 swaps the single-group abd::Node for a shard::Router:
    // the same SyncRegister facade, but every operation is dispatched to the
    // object's own quorum group by the Router's routing seam.
    std::unique_ptr<Actor> actor;
    abd::RegisterNode* node_ref = nullptr;
    if (args.shards > 1) {
      auto router = std::make_unique<shard::Router>(shard::RouterOptions{
          shard::ShardMap::uniform(1, args.shards, args.replicas / args.shards),
          abd::ReadMode::kAtomic, abd::WriteMode::kMultiWriter, node_options.client,
          &metrics});
      node_ref = router.get();
      actor = std::move(router);
    } else {
      auto node = std::make_unique<abd::Node>(node_options);
      node_ref = node.get();
      actor = std::move(node);
    }
    net::Transport transport{std::move(options), std::move(actor)};
    transport.start(table);
    abd::SyncRegister registers{
        [&transport](std::function<void()> fn) { transport.post(std::move(fn)); },
        *node_ref};

    const Duration timeout = std::chrono::milliseconds{args.timeout_ms};
    checker::History history;
    Summary write_us;
    Summary read_us;
    // Values are unique per (seed, op) so the checker can match reads to
    // writes across CLI invocations.
    const std::int64_t base = static_cast<std::int64_t>(args.seed) * 1'000'000;
    std::optional<harness::ZipfKeys> zipf;
    if (args.zipf) zipf.emplace(args.objects, 0.99, args.seed);

    for (std::size_t op = 0; op < args.ops; ++op) {
      const abd::ObjectId object = args.zipf ? zipf->next() : op % args.objects;
      Value value;
      value.data = base + static_cast<std::int64_t>(op) + 1;

      const std::optional<abd::OpResult> w = registers.write(object, value, timeout);
      if (!w.has_value()) {
        std::fprintf(stderr, "abd_net_cli: write %zu timed out (no quorum?)\n", op);
        return 1;
      }
      write_us.add(static_cast<double>((w->responded - w->invoked).count()) / 1e3);
      history.add(checker::OpRecord{args.id, checker::OpType::kWrite, object, value.data,
                                    w->invoked, w->responded, true});

      const std::optional<abd::OpResult> r = registers.read(object, timeout);
      if (!r.has_value()) {
        std::fprintf(stderr, "abd_net_cli: read %zu timed out (no quorum?)\n", op);
        return 1;
      }
      read_us.add(static_cast<double>((r->responded - r->invoked).count()) / 1e3);
      history.add(checker::OpRecord{args.id, checker::OpType::kRead, object,
                                    r->value.data, r->invoked, r->responded, true});
    }

    transport.stop();

    // A single sequential client still exercises real consistency: a stale
    // read (e.g. from a replica that missed the write quorum) shows up as a
    // read returning a value the sequential order forbids.
    checker::CheckerOptions checker_options;
    // Reads may legitimately observe values installed by a PREVIOUS CLI
    // invocation (unknown initial state); seed the checker per object with
    // whatever the first read before any completed write would return is
    // not available, so restrict to this run's objects and accept the first
    // write as the anchor by checking only ops after the first write per
    // object — simplest: this run always writes an object before reading
    // it, so the default initial value never surfaces and 0 is safe.
    checker_options.initial_value = 0;
    const checker::LinearizabilityReport report =
        checker::check_linearizable_per_object(history, checker_options);
    if (!history.well_formed() || !report.linearizable) {
      std::fprintf(stderr, "abd_net_cli: HISTORY NOT LINEARIZABLE: %s\n",
                   report.explanation.c_str());
      return 1;
    }

    std::printf("abd_net_cli: %zu writes + %zu reads over %zu replicas, linearizable\n",
                write_us.count(), read_us.count(), args.replicas);
    if (args.shards > 1) {
      // Per-group routing accounting from the Router's metrics labels.
      std::printf("  shard ops:");
      for (std::size_t s = 0; s < args.shards; ++s) {
        std::printf(" %zu:%llu", s,
                    static_cast<unsigned long long>(
                        metrics.counter("shard." + std::to_string(s) + ".ops")));
      }
      std::printf("\n");
    }
    std::printf("  write us: %s\n", write_us.brief().c_str());
    std::printf("  read  us: %s\n", read_us.brief().c_str());
    std::printf("metrics %s\n", metrics.to_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abd_net_cli: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}

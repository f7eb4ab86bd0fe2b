// abd_node — one ABD replica as a real OS process.
//
//   $ ./abd_node --id 0 --replicas 3
//       --peers 127.0.0.1:4100,127.0.0.1:4101,127.0.0.1:4102
//
// Hosts a full abd::Node (replica + client halves) on a net::Transport and
// serves until SIGINT/SIGTERM. The --peers table lists the replicas,
// indexed by process id: the first --replicas entries are the quorum
// universe (the paper's n), and later entries are accepted and ignored.
// Clients such as abd_net_cli need no entry: each reply rides back on the
// connection its request arrived on. Kill -9 this process and its peers see
// exactly the paper's crash fault: silence, with in-flight messages lost.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "abdkit/abd/node.hpp"
#include "abdkit/abd/strategy.hpp"
#include "abdkit/common/log.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/net/transport.hpp"
#include "abdkit/quorum/quorum_system.hpp"
#include "abdkit/shard/node.hpp"
#include "abdkit/shard/shard_map.hpp"
#include "abdkit/wire/codec.hpp"

using namespace std::chrono_literals;
using namespace abdkit;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct Args {
  ProcessId id{kNoProcess};
  std::size_t replicas{0};
  std::size_t shards{1};
  std::size_t reactors{1};
  int listen_backlog{-1};
  long inbound_service_us{0};
  std::string peers;
  std::string variant{"baseline"};
  bool verbose{false};
  bool help{false};
};

void usage() {
  std::printf(
      "usage: abd_node --id I --replicas R --peers h:p,h:p,...\n"
      "  --id I         this process's index into the peer table\n"
      "  --replicas R   quorum universe size (first R peer entries)\n"
      "  --peers LIST   comma-separated host:port table of the replicas, index =\n"
      "                 process id (clients need no entry; extra ones are ignored)\n"
      "  --shards S     split the R replicas into S contiguous quorum groups\n"
      "                 of R/S (requires R %% S == 0). The process serves every\n"
      "                 group it belongs to on this one transport and is a\n"
      "                 routing client of all of them (default 1: classic\n"
      "                 single-group node)\n"
      "  --variant V    protocol variant: baseline | fast-path | time-efficient\n"
      "                 | two-bit (two-bit also switches to the compact wire\n"
      "                 envelope; every peer must then run --variant two-bit or\n"
      "                 at least a build that understands it)\n"
      "  --reactors N   event-loop threads (default 1; inbound connections are\n"
      "                 round-robined across them, the protocol can't tell)\n"
      "  --listen-backlog B  listen(2) backlog (default SOMAXCONN)\n"
      "  --inbound-service-us D  modeled per-inbound-frame service time in\n"
      "                 microseconds, for capacity experiments (default 0: off)\n"
      "  --verbose      log connection events\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") {
      args.help = true;
    } else if (flag == "--id") {
      const char* v = next();
      if (v == nullptr) return false;
      args.id = static_cast<ProcessId>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--replicas") {
      const char* v = next();
      if (v == nullptr) return false;
      args.replicas = std::strtoul(v, nullptr, 10);
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      args.shards = std::strtoul(v, nullptr, 10);
    } else if (flag == "--peers") {
      const char* v = next();
      if (v == nullptr) return false;
      args.peers = v;
    } else if (flag == "--variant") {
      const char* v = next();
      if (v == nullptr) return false;
      args.variant = v;
    } else if (flag == "--reactors") {
      const char* v = next();
      if (v == nullptr) return false;
      args.reactors = std::strtoul(v, nullptr, 10);
    } else if (flag == "--listen-backlog") {
      const char* v = next();
      if (v == nullptr) return false;
      args.listen_backlog = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (flag == "--inbound-service-us") {
      const char* v = next();
      if (v == nullptr) return false;
      args.inbound_service_us = std::strtol(v, nullptr, 10);
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
      args.id >= table.size() || table.size() < args.replicas || args.shards == 0 ||
      args.replicas % args.shards != 0) {
    usage();
    return 2;
  }
  const std::optional<abd::ProtocolVariant> variant = abd::parse_variant(args.variant);
  if (!variant.has_value()) {
    std::fprintf(stderr, "abd_node: unknown --variant '%s'\n", args.variant.c_str());
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
  options.reactors = args.reactors == 0 ? 1 : args.reactors;
  options.listen_backlog = args.listen_backlog;
  options.inbound_service_time = std::chrono::microseconds{args.inbound_service_us};
  if (*variant == abd::ProtocolVariant::kTwoBit) {
    options.wire_format = wire::WireFormat::kCompact;
  }

  try {
    // --shards > 1 swaps the single-group abd::Node for a shard::Node: the
    // same group-agnostic replica (groups partition ObjectIds, so requests
    // from different groups touch disjoint slots on this one transport)
    // plus a Router that makes the process a client of every group.
    std::unique_ptr<Actor> actor;
    if (args.shards > 1) {
      shard::NodeOptions shard_options;
      shard_options.map =
          shard::ShardMap::uniform(1, args.shards, args.replicas / args.shards);
      shard_options.write_mode = abd::WriteMode::kMultiWriter;
      shard_options.client = node_options.client;
      shard_options.metrics = &metrics;
      actor = std::make_unique<shard::Node>(std::move(shard_options));
    } else {
      actor = std::make_unique<abd::Node>(node_options);
    }
    net::Transport transport{std::move(options), std::move(actor)};
    const std::uint16_t port = transport.bind(table[args.id]);
    transport.start(table);
    std::printf("abd_node: replica %u/%zu (%zu quorum group%s) listening on %s:%u\n",
                args.id, args.replicas, args.shards, args.shards == 1 ? "" : "s",
                table[args.id].host.c_str(), port);
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (!g_stop.load()) std::this_thread::sleep_for(50ms);

    transport.stop();
    std::printf("abd_node: replica %u shut down; metrics %s\n", args.id,
                metrics.to_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abd_node: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}

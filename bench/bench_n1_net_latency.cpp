// Experiment N1 — real network round-trips per operation.
//
// The simulator (E1/E2) counts abstract rounds; this bench puts the same
// protocol on real sockets: n replica transports plus one client transport,
// every message crossing a loopback TCP connection through the frame codec
// and the poll event loop. Wall-clock latency per op is then an honest
// measurement of the paper's round structure:
//
//   SWMR write            1 round trip   (Update -> quorum of acks)
//   MWMR write            2 round trips  (TagQuery, then Update)
//   atomic read           2 round trips  (ReadQuery, then write-back)
//   atomic read fast path 1 round trip   (unanimous quorum, A6)
//
// Mostéfaoui–Raynal (arXiv:1601.04820) report their protocols in exactly
// these units; with this bench the repo's numbers are comparable. The final
// line is the PR-1 metrics JSON including the net.* counters (bytes and
// frames on the wire, connects), so message-size accounting is real too.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/abd/sync_register.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/common/stats.hpp"
#include "abdkit/net/transport.hpp"
#include "abdkit/quorum/quorum_system.hpp"
#include "perf_json.hpp"

using namespace std::chrono_literals;
using namespace abdkit;

namespace {

Metrics& metrics() {
  static Metrics instance;
  return instance;
}

struct Row {
  Summary write_us;
  Summary read_us;
  double write_rounds{0};
  double read_rounds{0};
  double seconds{0};
};

/// Maps one op class of a measured row into the shared BENCH_*.json schema.
/// Every round is one broadcast + its replies, so msgs/op = rounds x 2n — an
/// identity of the protocol (checked exactly by bench_p1/E1), not a guess.
abdkit::bench::PerfRow perf_row(const char* op, std::size_t n, const Summary& lat,
                                double rounds, double seconds, int ops) {
  abdkit::bench::PerfRow row;
  row.runtime = "net";
  row.workload = "closed";
  row.op = op;
  row.window = 1;
  row.n = n;
  row.ops = static_cast<std::uint64_t>(ops);
  row.seconds = seconds;
  row.ops_per_sec = seconds > 0 ? ops / seconds : 0;
  row.p50_us = static_cast<std::uint64_t>(lat.quantile(0.5));
  row.p99_us = static_cast<std::uint64_t>(lat.quantile(0.99));
  row.p999_us = static_cast<std::uint64_t>(lat.quantile(0.999));
  row.msgs_per_op = rounds * 2.0 * static_cast<double>(n);
  row.rounds_per_op = rounds;
  return row;
}

/// Deploys n replicas + 1 client, all in this process but every message on
/// loopback TCP, and runs `ops` write+read pairs.
Row run_row(std::size_t n, bool fast_path, int ops) {
  abd::NodeOptions node_options;
  node_options.quorums = std::make_shared<quorum::MajorityQuorum>(n);
  node_options.write_mode = abd::WriteMode::kMultiWriter;
  node_options.client.retransmit_interval = 100ms;
  if (fast_path) node_options.client.variant = abd::ProtocolVariant::kUnanimousFastPath;
  node_options.client.metrics = &metrics();

  std::vector<std::unique_ptr<net::Transport>> transports;
  const ProcessId client_id = static_cast<ProcessId>(n);
  abd::Node* client_node = nullptr;
  for (ProcessId id = 0; id <= client_id; ++id) {
    net::TransportOptions options;
    options.self = id;
    options.world_size = n;
    options.metrics = &metrics();
    auto node = std::make_unique<abd::Node>(node_options);
    if (id == client_id) client_node = node.get();
    transports.push_back(
        std::make_unique<net::Transport>(std::move(options), std::move(node)));
  }
  std::vector<net::Address> table;
  for (auto& transport : transports) {
    net::Address address;  // 127.0.0.1, ephemeral port
    address.port = transport->bind(address);
    table.push_back(address);
  }
  for (auto& transport : transports) transport->start(table);

  net::Transport& client = *transports.back();
  abd::SyncRegister registers{
      [&client](std::function<void()> fn) { client.post(std::move(fn)); },
                              *client_node};
  Row row;
  double write_rounds = 0;
  double read_rounds = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int op = 0; op < ops; ++op) {
    Value value;
    value.data = op + 1;
    const auto w = registers.write(0, value, 5s);
    const auto r = registers.read(0, 5s);
    if (!w.has_value() || !r.has_value()) {
      std::fprintf(stderr, "bench_n1: operation timed out\n");
      std::exit(1);
    }
    row.write_us.add(static_cast<double>((w->responded - w->invoked).count()) / 1e3);
    row.read_us.add(static_cast<double>((r->responded - r->invoked).count()) / 1e3);
    write_rounds += w->rounds;
    read_rounds += r->rounds;
  }
  row.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  row.write_rounds = write_rounds / ops;
  row.read_rounds = read_rounds / ops;
  for (auto& transport : transports) transport->stop();
  return row;
}

}  // namespace

int main() {
  constexpr int kOps = 300;
  bench::PerfJson out{"N1"};
  std::printf("N1: real TCP round trips, loopback, MWMR writes + atomic reads\n");
  std::printf("%4s %5s | %7s %8s %8s %8s | %7s %8s %8s %8s\n", "n", "fast", "w rnds",
              "w p50us", "w p99us", "w max", "r rnds", "r p50us", "r p99us", "r max");
  for (const std::size_t n : {3U, 5U}) {
    for (const bool fast_path : {false, true}) {
      const Row row = run_row(n, fast_path, kOps);
      std::printf("%4zu %5s | %7.1f %8.0f %8.0f %8.0f | %7.1f %8.0f %8.0f %8.0f\n", n,
                  fast_path ? "on" : "off", row.write_rounds,
                  row.write_us.quantile(0.5), row.write_us.quantile(0.99),
                  row.write_us.max(), row.read_rounds, row.read_us.quantile(0.5),
                  row.read_us.quantile(0.99), row.read_us.max());
      // Only the paper-default configuration lands in the trajectory file —
      // fast-path rows have their own ablation (A6).
      if (!fast_path) {
        out.add(perf_row("write", n, row.write_us, row.write_rounds, row.seconds, kOps));
        out.add(perf_row("read", n, row.read_us, row.read_rounds, row.seconds, kOps));
      }
    }
  }
  if (!out.write_file("BENCH_N1.json")) return 1;
  std::printf(
      "\nnote: the sim (E1) counts the same rounds abstractly; here each round\n"
      "is a real socket round trip, so p50 latency ~= rounds x loopback RTT\n"
      "plus framing/codec cost.\n");
  std::printf("\nmetrics %s\n", metrics().to_json().c_str());
  return 0;
}

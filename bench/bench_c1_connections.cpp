// Experiment C1 — connection scaling on the multi-reactor transport.
//
// 1k-10k concurrent pipelined clients (a net::ClientSwarm) read against a
// 3-replica group where every replica is a REAL abd_node subprocess — the
// fd budget (ulimit -n 20000 here) is split across four processes instead
// of concentrating ~2x clients x n descriptors in one, and replica crashes
// or accept-queue behaviour are the kernel's, not an in-process emulation.
//
// What the sweep shows:
//   * conns = clients x n concurrent TCP connections into the group, each
//     carrying its requests out and its replies back; the replicas' table
//     lists only the n replicas.
//   * Replica capacity is governed by a MODELED per-inbound-frame service
//     time delta (abd_node --inbound-service-us): each op costs a replica 2
//     inbound frames (one request per round, E1), so one reactor sustains
//     ~1/(2 delta) ops/s and R reactors ~R/(2 delta) — sleeps scale out
//     across reactor threads without needing cores, which keeps the
//     single-CPU CI host honest. Raw delta=0 rows are included for the
//     unmodeled loopback numbers.
//   * accept_p50/p99_us is connect(2)-start to established on the swarm
//     side, which includes the replica's accept/backlog delay — the
//     accept-latency-vs-connection-count signal.
//
// Hard asserts (exit 1): per row, messages == ops x 2n and rounds == ops x 2
// (the E1 wire identity, measured end-to-end across processes); in full
// mode, conns >= 5000 at the largest sweep point and 4-reactor throughput
// >= 2x single-reactor at every modeled connection count.
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/net/swarm.hpp"
#include "abdkit/net/transport.hpp"
#include "abdkit/quorum/quorum_system.hpp"
#include "perf_json.hpp"

using namespace std::chrono_literals;
using namespace abdkit;

namespace {

constexpr std::size_t kReplicas = 3;

bool g_quick = false;

[[noreturn]] void die(const std::string& what) { throw std::runtime_error(what); }

/// Reserves an ephemeral loopback port: bind(0), read it back, close. The
/// port is then handed to a replica subprocess on its command line. (The
/// close->rebind window is a classic race, but nothing else allocates
/// listeners on this host while the bench runs.)
std::uint16_t pick_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("pick_port: socket failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    die("pick_port: bind failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    die("pick_port: getsockname failed");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

std::string join_table(const std::vector<net::Address>& table) {
  std::string out;
  for (const net::Address& a : table) {
    if (!out.empty()) out += ',';
    out += a.host + ':' + std::to_string(a.port);
  }
  return out;
}

/// The 3 abd_node subprocesses behind one sweep row. SIGTERM + reap on
/// destruction, so a thrown assert still tears the group down cleanly.
class ReplicaGroup {
 public:
  ReplicaGroup(const std::string& node_path, const std::vector<net::Address>& table,
               std::size_t reactors, long service_us) {
    const std::string peers = join_table(table);
    // Flush before forking: the children inherit stdio buffers, and any
    // unflushed banner text would otherwise be replayed by each child.
    std::fflush(stdout);
    for (ProcessId id = 0; id < kReplicas; ++id) {
      // argv built BEFORE fork: the child must not allocate.
      std::vector<std::string> args{node_path,
                                    "--id",
                                    std::to_string(id),
                                    "--replicas",
                                    std::to_string(kReplicas),
                                    "--peers",
                                    peers,
                                    "--reactors",
                                    std::to_string(reactors),
                                    "--inbound-service-us",
                                    std::to_string(service_us)};
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) die("fork failed");
      if (pid == 0) {
        // Child: silence the replica's stdout (startup banner + shutdown
        // metrics dump); stderr stays attached for diagnosis. Raw dup2, not
        // freopen — freopen would flush the fork-inherited stdio buffer.
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
          ::dup2(devnull, STDOUT_FILENO);
          ::close(devnull);
        }
        ::execv(node_path.c_str(), argv.data());
        std::fprintf(stderr, "bench_c1: execv %s failed: %s\n", node_path.c_str(),
                     std::strerror(errno));
        ::_exit(127);
      }
      pids_.push_back(pid);
    }
  }

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  ~ReplicaGroup() {
    for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    for (const pid_t pid : pids_) {
      for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || r < 0) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(20ms);
      }
    }
  }

  /// Blocks until every replica's listener accepts a probe connection (the
  /// probe closes immediately; the replica just sees a short-lived inbound).
  [[nodiscard]] bool wait_listening(const std::vector<net::Address>& table) const {
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    for (ProcessId id = 0; id < kReplicas; ++id) {
      for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(table[id].port);
        const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
        ::close(fd);
        if (rc == 0) break;
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(20ms);
      }
    }
    return true;
  }

 private:
  std::vector<pid_t> pids_;
};

struct RowResult {
  std::size_t clients{0};
  std::size_t reactors{0};
  long service_us{0};
  std::size_t conns{0};
  net::ClientSwarm::RunStats stats;
};

RowResult run_row(const std::string& node_path, std::size_t clients, std::size_t reactors,
                  long service_us, Duration window, std::size_t swarm_shards) {
  std::vector<net::Address> table(kReplicas);
  for (net::Address& a : table) {
    a.host = "127.0.0.1";
    a.port = pick_port();
  }

  Metrics metrics;
  net::SwarmOptions options;
  options.clients = clients;
  options.shards = swarm_shards;
  options.pipeline_depth = 2;
  options.world_size = kReplicas;
  options.node.quorums = std::make_shared<quorum::MajorityQuorum>(kReplicas);
  options.node.write_mode = abd::WriteMode::kMultiWriter;
  // Retransmits off for the window: the E1 identity msgs = rounds x n is
  // asserted EXACTLY, and RunStats.messages already excludes resends anyway.
  options.node.client.retransmit_interval = 30s;
  options.connect_timeout = 120s;
  options.metrics = &metrics;

  net::ClientSwarm swarm{std::move(options)};
  ReplicaGroup group{node_path, table, reactors, service_us};
  if (!group.wait_listening(table)) die("replica group never started listening");
  if (!swarm.start(table)) die("swarm connect storm timed out");

  RowResult row;
  row.clients = clients;
  row.reactors = reactors;
  row.service_us = service_us;
  row.conns = swarm.connections();
  row.stats = swarm.run_reads(window);
  swarm.stop();

  if (metrics.counter("swarm.frame_decode_errors") != 0 ||
      metrics.counter("swarm.misrouted_frames") != 0) {
    die("swarm saw decode errors or misrouted frames");
  }
  // The E1 wire identity, end to end across process boundaries: every
  // completed read is exactly 2 rounds of 1 request to each of n replicas.
  const std::uint64_t want_msgs = row.stats.ops * 2 * kReplicas;
  const std::uint64_t want_rounds = row.stats.ops * 2;
  if (row.stats.messages != want_msgs || row.stats.rounds != want_rounds) {
    std::fprintf(stderr,
                 "bench_c1: E1 identity violated at C=%zu R=%zu: msgs %llu (want %llu), "
                 "rounds %llu (want %llu)\n",
                 clients, reactors, static_cast<unsigned long long>(row.stats.messages),
                 static_cast<unsigned long long>(want_msgs),
                 static_cast<unsigned long long>(row.stats.rounds),
                 static_cast<unsigned long long>(want_rounds));
    die("E1 message-complexity identity violated");
  }
  return row;
}

bench::PerfRow perf_row(const RowResult& r) {
  bench::PerfRow row;
  row.runtime = "net";
  row.workload = "closed";
  row.op = "read";
  row.window = 2;  // pipeline depth per client
  row.n = kReplicas;
  row.ops = r.stats.ops;
  row.seconds = r.stats.seconds;
  row.ops_per_sec = r.stats.seconds > 0
                        ? static_cast<double>(r.stats.ops) / r.stats.seconds
                        : 0;
  row.p50_us = r.stats.p50_us;
  row.p99_us = r.stats.p99_us;
  row.p999_us = r.stats.p999_us;
  row.msgs_per_op = 2.0 * static_cast<double>(kReplicas);  // asserted above
  row.rounds_per_op = 2.0;
  row.reactors = r.reactors;
  row.conns = r.conns;
  row.accept_p50_us = r.stats.connect_p50_us;
  row.accept_p99_us = r.stats.connect_p99_us;
  return row;
}

void print_row(const RowResult& r) {
  const double ops_s =
      r.stats.seconds > 0 ? static_cast<double>(r.stats.ops) / r.stats.seconds : 0;
  std::printf(
      "%6zu %3zu %7ld %6zu | %9llu %9.0f | %7llu %7llu %8llu | %8llu %8llu | %4llu\n",
      r.clients, r.reactors, r.service_us, r.conns,
      static_cast<unsigned long long>(r.stats.ops), ops_s,
      static_cast<unsigned long long>(r.stats.p50_us),
      static_cast<unsigned long long>(r.stats.p99_us),
      static_cast<unsigned long long>(r.stats.p999_us),
      static_cast<unsigned long long>(r.stats.connect_p50_us),
      static_cast<unsigned long long>(r.stats.connect_p99_us),
      static_cast<unsigned long long>(r.stats.stragglers));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_C1.json";
  std::string node_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--abd-node") == 0 && i + 1 < argc) {
      node_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s --abd-node PATH [--quick] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  if (node_path.empty()) {
    std::fprintf(stderr, "bench_c1: --abd-node PATH (the replica binary) is required\n");
    return 2;
  }
  // Probe connects and subprocess teardown can race a write against a reset
  // connection; EPIPE handling belongs to the transport, not a signal.
  std::signal(SIGPIPE, SIG_IGN);

  const long modeled_us = 250;  // delta: replica per-inbound-frame service time
  const Duration window = g_quick ? Duration{500ms} : Duration{4s};
  const std::size_t shards = g_quick ? 2 : 4;

  std::printf("C1: connection scaling, %zu-replica group as abd_node subprocesses%s\n",
              kReplicas, g_quick ? " (quick)" : "");
  std::printf("modeled rows: delta=%ldus/frame => one reactor ~%ld ops/s, R reactors ~Rx\n",
              modeled_us, 1000000 / (2 * modeled_us));
  std::printf("%6s %3s %7s %6s | %9s %9s | %7s %7s %8s | %8s %8s | %4s\n", "C", "R",
              "svc_us", "conns", "ops", "ops/s", "p50us", "p99us", "p999us", "acc p50",
              "acc p99", "lag");

  bench::PerfJson out{"C1"};
  std::vector<RowResult> results;
  try {
    if (g_quick) {
      for (const std::size_t reactors : {1UL, 2UL}) {
        const RowResult r = run_row(node_path, 40, reactors, 0, window, shards);
        print_row(r);
        out.add(perf_row(r));
        results.push_back(r);
      }
    } else {
      // Modeled capacity sweep: C x R grid, then raw (delta=0) loopback rows.
      for (const std::size_t clients : {500UL, 1000UL, 2500UL}) {
        for (const std::size_t reactors : {1UL, 4UL}) {
          const RowResult r = run_row(node_path, clients, reactors, modeled_us, window, shards);
          print_row(r);
          out.add(perf_row(r));
          results.push_back(r);
        }
      }
      for (const std::size_t reactors : {1UL, 4UL}) {
        const RowResult r = run_row(node_path, 1000, reactors, 0, window, shards);
        print_row(r);
        out.add(perf_row(r));
        results.push_back(r);
      }
    }

    if (!g_quick) {
      // Acceptance: >= 5k concurrent group connections at the top of the
      // sweep, and multi-reactor capacity >= 2x single-reactor at every
      // modeled connection count (the model predicts 4x; 2x is the floor).
      std::size_t max_conns = 0;
      std::map<std::size_t, std::map<std::size_t, double>> modeled;  // C -> R -> ops/s
      for (const RowResult& r : results) {
        max_conns = std::max(max_conns, r.conns);
        if (r.service_us == modeled_us && r.stats.seconds > 0) {
          modeled[r.clients][r.reactors] =
              static_cast<double>(r.stats.ops) / r.stats.seconds;
        }
      }
      if (max_conns < 5000) die("sweep never reached 5000 concurrent connections");
      for (const auto& [clients, by_reactors] : modeled) {
        const double r1 = by_reactors.at(1);
        const double r4 = by_reactors.at(4);
        std::printf("C=%zu: R=4 vs R=1 speedup %.2fx (floor 2x)\n", clients, r4 / r1);
        if (r4 < 2.0 * r1) die("4-reactor throughput below 2x single-reactor");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_c1: FAILED: %s\n", e.what());
    return 1;
  }

  out.add_section("c1", {{"modeled_service_us", static_cast<std::uint64_t>(modeled_us)},
                         {"pipeline_depth", 2},
                         {"swarm_shards", shards}});
  if (!out.write_file(out_path)) return 1;
  std::printf(
      "\nnote: 'conns' counts swarm->group connections; replies ride back on\n"
      "them. acc p50/p99 = connect start to established,\n"
      "including the replica's accept/backlog delay. E1 identity (msgs = 2n x ops,\n"
      "rounds = 2 x ops) hard-asserted on every row.\n");
  return 0;
}

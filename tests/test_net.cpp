// Net subsystem tests.
//
// Frame layer: round trips, incremental reassembly, and fuzz-style
// robustness mirroring test_wire's total-decode pattern — every prefix of a
// valid frame, oversized/undersized length fields, corrupt payloads, and
// random bytes must yield a clean kNeedMore or kError, never UB and never
// an allocation driven by a hostile length field.
//
// Transport layer: a real localhost deployment — n=3 replica transports
// plus a client transport, every message over loopback TCP — runs a
// write/read workload, is linearizable, keeps completing operations after
// one replica is stopped (the crash fault), and reports net.* counters
// through the metrics registry. The client neither listens nor has a table
// entry: replies ride back on the connections its requests went out on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "abdkit/abd/messages.hpp"
#include "abdkit/abd/node.hpp"
#include "abdkit/abd/sync_register.hpp"
#include "abdkit/checker/history.hpp"
#include "abdkit/checker/linearizability.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/common/rng.hpp"
#include "abdkit/common/transport.hpp"
#include "abdkit/net/frame.hpp"
#include "abdkit/net/send_queue.hpp"
#include "abdkit/net/swarm.hpp"
#include "abdkit/net/transport.hpp"
#include "abdkit/quorum/quorum_system.hpp"
#include "abdkit/trace/cluster_trace.hpp"
#include "abdkit/wire/codec.hpp"

namespace abdkit::net {
namespace {

using namespace std::chrono_literals;

// ---- Frame layer -------------------------------------------------------------

std::vector<std::byte> sample_frame(ProcessId src = 1, ProcessId dst = 2) {
  Value value;
  value.data = 42;
  value.aux = {7, -8};
  const auto payload = make_payload<abd::ReadReply>(3, 4, abd::Tag{5, 6}, value);
  return encode_frame(src, dst, *payload);
}

TEST(Frame, RoundTrips) {
  const std::vector<std::byte> bytes = sample_frame(9, 11);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.src, 9u);
  EXPECT_EQ(frame.dst, 11u);
  ASSERT_NE(frame.payload, nullptr);
  EXPECT_EQ(frame.payload->tag(), abd::tags::kReadReply);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.failed());
}

TEST(Frame, ByteAtATimeReassembly) {
  const std::vector<std::byte> bytes = sample_frame();
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(std::span{&bytes[i], 1});
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore) << i;
  }
  decoder.feed(std::span{&bytes.back(), 1});
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, BackToBackFramesInOneFeed) {
  std::vector<std::byte> bytes = sample_frame(1, 2);
  const std::vector<std::byte> second = sample_frame(3, 4);
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.src, 1u);
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.src, 3u);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, EveryPrefixYieldsNoFrameAndNoError) {
  const std::vector<std::byte> bytes = sample_frame();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(std::span{bytes.data(), cut});
    Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore) << cut;
    EXPECT_FALSE(decoder.failed()) << cut;
  }
}

TEST(Frame, OversizedLengthIsRejectedWithoutAllocation) {
  wire::Writer w;
  w.u32(kMaxFrameLength + 1);
  FrameDecoder decoder;
  decoder.feed(w.bytes());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.failed());
  // Poisoned decoders buffer nothing further.
  decoder.feed(sample_frame());
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

TEST(Frame, TinyLengthIsRejected) {
  wire::Writer w;
  w.u32(4);  // below addresses + envelope minimum
  w.u32(1);
  FrameDecoder decoder;
  decoder.feed(w.bytes());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

TEST(Frame, CorruptPayloadPoisonsTheStream) {
  std::vector<std::byte> bytes = sample_frame();
  // The envelope's payload tag sits after length + src + dst; 0xffffffff is
  // no known payload family, so wire::decode must reject the body.
  for (std::size_t i = 12; i < 16; ++i) bytes[i] = std::byte{0xff};
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.failed());
}

TEST(Frame, RespectsCustomLengthCap) {
  const std::vector<std::byte> bytes = sample_frame();
  FrameDecoder decoder{8};  // cap below this frame's length
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

TEST(Frame, RandomGarbageNeverCrashesAndBoundsMemory) {
  Rng rng{20260805};
  for (int trial = 0; trial < 2000; ++trial) {
    FrameDecoder decoder;
    Frame frame;
    std::size_t fed = 0;
    for (int chunk = 0; chunk < 8; ++chunk) {
      std::vector<std::byte> bytes(rng.below(64));
      for (std::byte& b : bytes) b = static_cast<std::byte>(rng.below(256));
      decoder.feed(bytes);
      fed += bytes.size();
      // Drain; any status is legal, crashing or unbounded buffering is not.
      while (decoder.next(frame) == FrameDecoder::Status::kFrame) {
      }
      ASSERT_LE(decoder.buffered(), fed);
      if (decoder.failed()) break;
    }
  }
}

TEST(Frame, BitflippedValidFramesAreHandledGracefully) {
  Rng rng{99};
  const std::vector<std::byte> pristine = sample_frame();
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::byte> bytes = pristine;
    bytes[rng.below(bytes.size())] ^= static_cast<std::byte>(1U << rng.below(8));
    FrameDecoder decoder;
    decoder.feed(bytes);
    Frame frame;
    while (decoder.next(frame) == FrameDecoder::Status::kFrame) {
    }  // any outcome but UB is acceptable
  }
}

// ---- Address parsing ---------------------------------------------------------

TEST(Address, ParsesAndRejects) {
  Address address;
  EXPECT_TRUE(parse_address("127.0.0.1:8080", address));
  EXPECT_EQ(address.host, "127.0.0.1");
  EXPECT_EQ(address.port, 8080);
  EXPECT_FALSE(parse_address("127.0.0.1", address));
  EXPECT_FALSE(parse_address(":8080", address));
  EXPECT_FALSE(parse_address("127.0.0.1:", address));
  EXPECT_FALSE(parse_address("127.0.0.1:99999", address));
  EXPECT_FALSE(parse_address("localhost:80", address));  // numeric only

  std::vector<Address> table;
  EXPECT_TRUE(parse_address_list("127.0.0.1:1,127.0.0.1:2", table));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(parse_address_list("127.0.0.1:1,,127.0.0.1:2", table));
  EXPECT_FALSE(parse_address_list("", table));
}

// ---- Transport integration ---------------------------------------------------

/// The blocking facade over the node `transport` hosts.
abd::SyncRegister sync_register(Transport& transport, abd::RegisterNode& node) {
  return {[&transport](std::function<void()> fn) { transport.post(std::move(fn)); },
          node};
}

/// n replica transports plus client n. The replicas bind and get the
/// n-entry replica table; the client does not bind. With `metrics` null,
/// every process records into its own registry (registry(id)).
struct Deployment {
  explicit Deployment(std::size_t n, Metrics* metrics = nullptr,
                      runtime::ClusterObserver observer = nullptr,
                      std::size_t reactors = 1, int listen_backlog = -1) {
    const ProcessId client_id = static_cast<ProcessId>(n);
    for (ProcessId id = 0; id <= client_id; ++id) {
      Metrics* recorder = metrics;
      if (recorder == nullptr) {
        recorder = registries.emplace_back(std::make_unique<Metrics>()).get();
      }
      abd::NodeOptions node_options;
      node_options.quorums = std::make_shared<quorum::MajorityQuorum>(n);
      node_options.write_mode = abd::WriteMode::kMultiWriter;
      node_options.client.retransmit_interval = 50ms;
      node_options.client.metrics = recorder;
      TransportOptions options;
      options.self = id;
      options.world_size = n;
      options.metrics = recorder;
      options.reactors = reactors;
      options.listen_backlog = listen_backlog;
      if (id == client_id && observer) options.observer = std::move(observer);
      auto node = std::make_unique<abd::Node>(node_options);
      nodes.push_back(node.get());
      transports.push_back(
          std::make_unique<Transport>(std::move(options), std::move(node)));
    }
    for (ProcessId id = 0; id < n; ++id) {
      Address address;
      address.port = transports[id]->bind(address);
      table.push_back(address);
    }
    for (auto& transport : transports) transport->start(table);
  }

  ~Deployment() {
    for (auto& transport : transports) transport->stop();
  }

  [[nodiscard]] abd::SyncRegister client() {
    return sync_register(*transports.back(), *nodes.back());
  }
  [[nodiscard]] Metrics& registry(ProcessId id) { return *registries.at(id); }

  std::vector<std::unique_ptr<Metrics>> registries;  ///< first: outlives the transports
  std::vector<Address> table;
  std::vector<std::unique_ptr<Transport>> transports;
  std::vector<abd::Node*> nodes;
};

/// Ten write-then-read pairs on object 0 by client 3, each read returning
/// the value just written, and the history linearizable.
void run_linearizable_workload(abd::SyncRegister& client, std::int64_t first_value) {
  checker::History history;
  for (int op = 0; op < 10; ++op) {
    Value value;
    value.data = first_value + op;
    const auto w = client.write(0, value, 5s);
    ASSERT_TRUE(w.has_value()) << "write " << op << " stalled";
    history.add(checker::OpRecord{3, checker::OpType::kWrite, 0, value.data, w->invoked,
                                  w->responded, true});
    const auto r = client.read(0, 5s);
    ASSERT_TRUE(r.has_value()) << "read " << op << " stalled";
    EXPECT_EQ(r->value.data, value.data);
    history.add(checker::OpRecord{3, checker::OpType::kRead, 0, r->value.data, r->invoked,
                                  r->responded, true});
  }
  EXPECT_TRUE(history.well_formed());
  EXPECT_TRUE(checker::check_linearizable(history).linearizable);
}

TEST(NetTransport, QuorumWorkloadIsLinearizable) {
  Metrics metrics;
  Deployment deployment{3, &metrics};
  abd::SyncRegister client = deployment.client();
  run_linearizable_workload(client, 1);

  // Net counters flowed into the shared PR-1 registry: the client connected
  // to 3 replicas and real frames crossed real sockets.
  EXPECT_GE(metrics.counter("net.connects"), 3u);
  EXPECT_GT(metrics.counter("net.frames_out"), 0u);
  EXPECT_GT(metrics.counter("net.frames_in"), 0u);
  EXPECT_GT(metrics.counter("net.bytes_in"), 0u);
  EXPECT_GT(metrics.counter("net.bytes_out"), 0u);
  EXPECT_EQ(metrics.counter("net.frame_decode_errors"), 0u);
  // And the protocol-level counters recorded alongside them.
  EXPECT_GT(metrics.counter("client.ops_completed"), 0u);
}

TEST(NetTransport, ClientThatNeverBindsIsServedOnItsOwnConnections) {
  // One registry per process, so each count below is that process's own.
  // The client never binds and has no table entry; the replicas' tables
  // hold only the n replica addresses.
  constexpr std::size_t kN = 3;
  Deployment deployment{kN};
  ASSERT_EQ(deployment.table.size(), kN);
  abd::SyncRegister client = deployment.client();
  run_linearizable_workload(client, 1);
  for (auto& transport : deployment.transports) transport->stop();

  // Replicas dial only the mesh; nobody dials the client back.
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_EQ(deployment.registry(id).counter("net.connect_attempts"), kN - 1) << id;
  }
  Metrics& client_metrics = deployment.registry(kN);
  EXPECT_EQ(client_metrics.counter("net.connect_attempts"), kN);
  EXPECT_EQ(client_metrics.counter("net.accepts"), 0u);
  EXPECT_GT(client_metrics.counter("net.frames_in"), 0u);
  EXPECT_GT(client_metrics.counter("net.read_calls"), 0u);
  EXPECT_EQ(client_metrics.counter("net.sends_dropped"), 0u);
}

TEST(NetTransport, MultiReactorDeploymentStaysLinearizable) {
  // Same workload, 4 reactors per transport. Every accepted connection is
  // owned by exactly one reactor (round-robin), satellite reactors decode
  // and batch-post frames to home, and remote-owned client peers flow
  // through the staged-bytes hand-off — none of which the protocol can
  // observe: the history must stay linearizable and reply values exact.
  Metrics metrics;
  Deployment deployment{3, &metrics, nullptr, /*reactors=*/4};
  for (const auto& transport : deployment.transports) {
    EXPECT_EQ(transport->reactor_count(), 4u);
  }
  abd::SyncRegister client = deployment.client();
  run_linearizable_workload(client, 100);

  // Stop publishes reactor diagnostics: with 3+ inbound connections per
  // process round-robined over 4 reactors, satellites saw real fd events —
  // the inbound load genuinely sharded instead of collapsing onto home.
  for (auto& transport : deployment.transports) transport->stop();
  EXPECT_GT(metrics.counter("net.epoll_waits"), 0u);
  EXPECT_GT(metrics.counter("net.reactor_posts"), 0u);
  EXPECT_GT(metrics.counter("net.reactor.1.events"), 0u);
  EXPECT_GT(metrics.counter("net.reactor.2.events"), 0u);
  EXPECT_EQ(metrics.counter("net.frame_decode_errors"), 0u);
  EXPECT_EQ(metrics.counter("net.misrouted_frames"), 0u);
}

TEST(NetTransport, BacklogOptionAndCrashRecoveryAcrossReactors) {
  // Small explicit backlog + multi-reactor: a replica crash (stop) and the
  // wheel-timer redial path (replica mesh keeps redialing forever) must
  // work when peers live on reactors other than home.
  Metrics metrics;
  Deployment deployment{3, &metrics, nullptr, /*reactors=*/2, /*listen_backlog=*/8};
  abd::SyncRegister client = deployment.client();
  Value value;
  value.data = 1;
  ASSERT_TRUE(client.write(0, value, 5s).has_value());
  deployment.transports[2]->stop();
  for (int op = 0; op < 3; ++op) {
    value.data = 20 + op;
    ASSERT_TRUE(client.write(0, value, 10s).has_value()) << "write " << op;
    const auto r = client.read(0, 10s);
    ASSERT_TRUE(r.has_value()) << "read " << op;
    EXPECT_EQ(r->value.data, value.data);
  }
  // Survivors redialed the crashed replica on the wheel (no poll-scan left
  // to do it): attempts keep growing past the initial mesh dial.
  EXPECT_GT(metrics.counter("net.connect_attempts"), 4u);
}

TEST(ClientSwarm, PipelinedReadsAgainstLiveGroupCompleteExactly) {
  // A small swarm (8 clients on 2 shards, window 2) against 3 live replica
  // transports: every dial establishes, the closed loop completes ops, and
  // the per-op message/round counts sit exactly on the E1 read formula —
  // the same asserts bench_c1 makes at thousands of clients. The swarm
  // listens nowhere and the replicas know only each other: every reply
  // rides the client's own connection.
  constexpr std::size_t kN = 3;
  constexpr std::size_t kClients = 8;
  Metrics metrics;
  abd::NodeOptions node_options;
  node_options.quorums = std::make_shared<quorum::MajorityQuorum>(kN);
  node_options.write_mode = abd::WriteMode::kMultiWriter;
  node_options.client.retransmit_interval = 100ms;

  SwarmOptions swarm_options;
  swarm_options.clients = kClients;
  swarm_options.shards = 2;
  swarm_options.pipeline_depth = 2;
  swarm_options.world_size = kN;
  swarm_options.node = node_options;
  swarm_options.metrics = &metrics;
  ClientSwarm swarm{swarm_options};

  std::vector<std::unique_ptr<Transport>> replicas;
  std::vector<Address> table;
  for (ProcessId id = 0; id < kN; ++id) {
    TransportOptions options;
    options.self = id;
    options.world_size = kN;
    options.metrics = &metrics;
    options.reactors = 2;
    replicas.push_back(std::make_unique<Transport>(
        options, std::make_unique<abd::Node>(node_options)));
    Address address;
    address.port = replicas.back()->bind(address);
    table.push_back(address);
  }
  for (auto& replica : replicas) replica->start(table);

  ASSERT_TRUE(swarm.start(table)) << "swarm dials did not all establish";
  EXPECT_EQ(swarm.connections(), kClients * kN);

  const ClientSwarm::RunStats stats = swarm.run_reads(300ms);
  EXPECT_GT(stats.ops, 0u);
  EXPECT_EQ(stats.stragglers, 0u);
  // E1: a 2-round read sends 2n requests (replies are counted replica-side).
  EXPECT_EQ(stats.messages, stats.ops * 2 * kN);
  EXPECT_EQ(stats.rounds, stats.ops * 2);
  EXPECT_EQ(stats.connects, kClients * kN);
  EXPECT_GT(stats.p50_us, 0u);

  swarm.stop();
  for (auto& replica : replicas) replica->stop();
  EXPECT_EQ(metrics.counter("swarm.misrouted_frames"), 0u);
  EXPECT_EQ(metrics.counter("swarm.frame_decode_errors"), 0u);
  EXPECT_EQ(metrics.counter("net.misrouted_frames"), 0u);
}

TEST(NetTransport, SurvivesReplicaCrash) {
  Metrics metrics;
  Deployment deployment{3, &metrics};
  abd::SyncRegister client = deployment.client();
  Value value;
  value.data = 1;
  ASSERT_TRUE(client.write(0, value, 5s).has_value());

  // stop() silences the replica — to its peers exactly a crash fault.
  deployment.transports[2]->stop();

  for (int op = 0; op < 5; ++op) {
    value.data = 10 + op;
    ASSERT_TRUE(client.write(0, value, 10s).has_value()) << "write " << op;
    const auto r = client.read(0, 10s);
    ASSERT_TRUE(r.has_value()) << "read " << op;
    EXPECT_EQ(r->value.data, value.data);
  }
}

TEST(NetTransport, ObserverSeesClusterStyleEvents) {
  // The same trace recorder that consumes runtime::Cluster events records
  // net transports — tracing parity across the runtime ladder.
  trace::ClusterRecorder recorder;
  {
    Metrics metrics;
    Deployment deployment{3, &metrics, recorder.observer()};
    abd::SyncRegister client = deployment.client();
    Value value;
    value.data = 5;
    ASSERT_TRUE(client.write(0, value, 5s).has_value());
    ASSERT_TRUE(client.read(0, 5s).has_value());
  }
  EXPECT_FALSE(recorder.filtered("send").empty());
  EXPECT_FALSE(recorder.filtered("deliver").empty());
  EXPECT_FALSE(recorder.filtered("timer_set").empty());
}

TEST(NetTransport, FaultPlanPartitionIsSurvivableAndCounted) {
  Metrics metrics;
  Deployment deployment{3, &metrics};
  abd::SyncRegister client = deployment.client();
  Value value;
  value.data = 1;
  ASSERT_TRUE(client.write(0, value, 5s).has_value());

  // Symmetric partition: replica 2 cut off from everyone (mirror-image
  // blocked sets on both sides, per the FaultPlan contract). The remaining
  // majority keeps the register available.
  FaultPlan cut;
  cut.blocked = {0, 1, 3};
  deployment.transports[2]->set_faults(cut);
  for (const ProcessId id : {ProcessId{0}, ProcessId{1}, ProcessId{3}}) {
    FaultPlan plan;
    plan.blocked = {2};
    deployment.transports[id]->set_faults(plan);
  }

  for (int op = 0; op < 3; ++op) {
    value.data = 10 + op;
    ASSERT_TRUE(client.write(0, value, 10s).has_value()) << "write " << op;
    const auto r = client.read(0, 10s);
    ASSERT_TRUE(r.has_value()) << "read " << op;
    EXPECT_EQ(r->value.data, value.data);
  }
  EXPECT_GT(metrics.counter("net.faults_dropped"), 0u);

  // Clearing the plans heals the partition; the isolated replica is
  // reachable again for subsequent quorums.
  for (auto& transport : deployment.transports) transport->set_faults(FaultPlan{});
  value.data = 99;
  ASSERT_TRUE(client.write(0, value, 10s).has_value());
}

TEST(NetTransport, FaultPlanRandomDropsAreSurvivable) {
  Metrics metrics;
  Deployment deployment{3, &metrics};
  abd::SyncRegister client = deployment.client();
  FaultPlan lossy;
  lossy.drop_probability = 0.25;
  lossy.seed = 42;
  for (auto& transport : deployment.transports) transport->set_faults(lossy);

  Value value;
  for (int op = 0; op < 5; ++op) {
    value.data = op + 1;
    ASSERT_TRUE(client.write(0, value, 20s).has_value()) << "write " << op;
    const auto r = client.read(0, 20s);
    ASSERT_TRUE(r.has_value()) << "read " << op;
    EXPECT_EQ(r->value.data, value.data);
  }
  EXPECT_GT(metrics.counter("net.faults_dropped"), 0u);
}

TEST(NetTransport, PostRunsOnTheLoopThread) {
  Metrics metrics;
  Deployment deployment{3, &metrics};
  auto& transport = *deployment.transports[0];
  std::promise<std::thread::id> ran;
  transport.post([&ran] { ran.set_value(std::this_thread::get_id()); });
  auto future = ran.get_future();
  ASSERT_EQ(future.wait_for(2s), std::future_status::ready);
  EXPECT_NE(future.get(), std::this_thread::get_id());
}

// ---- Reply routes ------------------------------------------------------------
//
// An echo replica (id 0 of a one-replica world) and client-only processes
// with id 1, which neither bind nor have a table entry: every frame the
// replica sends to 1 must ride a connection that client opened.

/// Counts what it receives and, as the replica, echoes each frame back.
/// The test sends on its Context from the loop thread (on_loop).
struct Echo final : Actor {
  explicit Echo(bool replies) : echo{replies} {}
  void on_start(Context& ctx) override { context = &ctx; }
  void on_message(Context& ctx, ProcessId from, const Payload&) override {
    received.fetch_add(1);
    if (echo) ctx.send(from, ping());
  }
  static PayloadPtr ping() {
    return make_payload<abd::Update>(1, 0, abd::Tag{1, 0}, Value{});
  }

  bool echo;
  Context* context{nullptr};
  std::atomic<int> received{0};
};

/// Run `fn` on `transport`'s loop thread and wait for it.
void on_loop(Transport& transport, const std::function<void()>& fn) {
  std::promise<void> done;
  transport.post([&] {
    fn();
    done.set_value();
  });
  ASSERT_EQ(done.get_future().wait_for(5s), std::future_status::ready);
}

/// Polls `condition` for up to 5 s.
bool eventually(const std::function<bool()>& condition) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!condition()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

struct EchoProcess {
  /// The replica (id 0, bound, echoing) when `table` is empty, else a
  /// client (id 1) that starts without binding.
  explicit EchoProcess(std::vector<Address> table) {
    const bool replica = table.empty();
    TransportOptions options;
    options.self = replica ? 0 : 1;
    options.world_size = 1;
    options.metrics = &metrics;
    auto echo = std::make_unique<Echo>(replica);
    actor = echo.get();
    transport = std::make_unique<Transport>(std::move(options), std::move(echo));
    if (replica) table.push_back(Address{"127.0.0.1", transport->bind(Address{})});
    transport->start(table);
  }

  void send_ping(ProcessId to) {
    on_loop(*transport, [this, to] { actor->context->send(to, Echo::ping()); });
  }
  [[nodiscard]] std::vector<Address> table() const {
    return {Address{"127.0.0.1", transport->port()}};
  }

  Metrics metrics;  ///< first: outlives the transport
  Echo* actor{nullptr};
  std::unique_ptr<Transport> transport;
};

TEST(NetTransport, RestartedClientTakesOverItsRouteAndADepartedOneIsDropped) {
  EchoProcess replica{{}};
  EchoProcess old_client{replica.table()};
  old_client.send_ping(0);
  ASSERT_TRUE(eventually([&] { return old_client.actor->received == 1; }));

  // The client restarts under the same id while its old connection is
  // still open: the newest connection to deliver a frame owns the route.
  EchoProcess new_client{replica.table()};
  new_client.send_ping(0);
  ASSERT_TRUE(eventually([&] { return new_client.actor->received == 1; }));

  // The old connection's close must not unbind the new route.
  old_client.transport->stop();
  ASSERT_TRUE(eventually([&] { return replica.metrics.counter("net.disconnects") == 1; }));
  replica.send_ping(1);
  EXPECT_TRUE(eventually([&] { return new_client.actor->received == 2; }));
  EXPECT_EQ(old_client.actor->received, 1);
  EXPECT_EQ(replica.metrics.counter("net.sends_dropped"), 0u);

  // Once the client is gone, a frame for it has no live route: dropped and
  // counted (the client would retransmit).
  new_client.transport->stop();
  ASSERT_TRUE(eventually([&] { return replica.metrics.counter("net.disconnects") == 2; }));
  replica.send_ping(1);
  EXPECT_EQ(replica.metrics.counter("net.sends_dropped"), 1u);
  EXPECT_EQ(replica.metrics.counter("net.accepts"), 2u);
}

TEST(NetTransport, FaultPlanBlocksAClientIdWithNoTableEntry) {
  EchoProcess replica{{}};
  FaultPlan plan;
  plan.blocked = {1};
  replica.transport->set_faults(plan);
  on_loop(*replica.transport, [] {});  // the plan is installed (posts are FIFO)

  EchoProcess client{replica.table()};
  client.send_ping(0);
  ASSERT_TRUE(eventually([&] { return replica.actor->received == 1; }));
  // The echo to client 1, which the 1-entry table does not list, is eaten.
  EXPECT_TRUE(eventually([&] { return replica.metrics.counter("net.faults_dropped") == 1; }));
  EXPECT_EQ(replica.metrics.counter("net.sends_dropped"), 0u);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(client.actor->received, 0);
}

// ---- SendQueue ---------------------------------------------------------------

std::size_t enqueue_frame(SendQueue& queue, std::size_t bytes) {
  std::vector<std::byte>& segment = queue.tail();
  const std::size_t mark = segment.size();
  segment.resize(mark + bytes, std::byte{0x5a});
  return mark;
}

std::vector<std::byte> gathered(const SendQueue& queue) {
  struct iovec iov[64];
  const int n = queue.gather(iov, 64);
  std::vector<std::byte> out;
  for (int i = 0; i < n; ++i) {
    const auto* base = static_cast<const std::byte*>(iov[i].iov_base);
    out.insert(out.end(), base, base + iov[i].iov_len);
  }
  return out;
}

TEST(SendQueue, GathersExactlyTheUnconsumedBytes) {
  SendQueue queue;
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.commit(enqueue_frame(queue, 100)));
  }
  EXPECT_EQ(queue.queued_bytes(), 500u);
  EXPECT_EQ(queue.frames_committed(), 5u);
  EXPECT_EQ(gathered(queue).size(), 500u);

  queue.consume(150);  // mid-frame: the unsent suffix must stay intact
  EXPECT_EQ(queue.queued_bytes(), 350u);
  EXPECT_EQ(gathered(queue).size(), 350u);
  queue.consume(350);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.gather(nullptr, 0), 0);
}

TEST(SendQueue, CommitPastTheLimitRollsTheFrameBack) {
  SendQueue queue{256};
  ASSERT_TRUE(queue.commit(enqueue_frame(queue, 200)));
  const std::size_t mark = enqueue_frame(queue, 100);
  EXPECT_FALSE(queue.commit(mark));  // 300 > 256: rejected...
  EXPECT_EQ(queue.queued_bytes(), 200u);
  EXPECT_EQ(queue.frames_committed(), 1u);
  EXPECT_EQ(gathered(queue).size(), 200u);  // ...and the bytes are gone
  ASSERT_TRUE(queue.commit(enqueue_frame(queue, 56)));  // exactly at the cap
  EXPECT_EQ(queue.queued_bytes(), 256u);
}

TEST(SendQueue, FramesNeverSpanSegments) {
  SendQueue queue;
  // Fill just past one segment target, then add another frame: it must land
  // in a fresh segment, so a writev that ends on the boundary never splits it.
  ASSERT_TRUE(queue.commit(enqueue_frame(queue, SendQueue::kSegmentTarget + 10)));
  ASSERT_TRUE(queue.commit(enqueue_frame(queue, 64)));
  struct iovec iov[4];
  ASSERT_EQ(queue.gather(iov, 4), 2);
  EXPECT_EQ(iov[0].iov_len, SendQueue::kSegmentTarget + 10);
  EXPECT_EQ(iov[1].iov_len, 64u);
}

TEST(SendQueue, EagerCompactionReleasesConsumedSegments) {
  // The slow-reader retention property at the unit level: drive ~4 MiB
  // through the queue with a consumer that always lags one segment behind,
  // and the resident heap must stay bounded by a couple of segments — the
  // old monolithic buffer kept every consumed byte until a full drain.
  SendQueue queue;
  constexpr std::size_t kFrame = 4096;
  std::size_t high_water = 0;
  for (int i = 0; i < 1024; ++i) {
    ASSERT_TRUE(queue.commit(enqueue_frame(queue, kFrame)));
    if (queue.queued_bytes() > SendQueue::kSegmentTarget) {
      queue.consume(SendQueue::kSegmentTarget);
    }
    high_water = std::max(high_water, queue.resident_bytes());
  }
  queue.consume(queue.queued_bytes());
  EXPECT_LT(high_water, 4 * SendQueue::kSegmentTarget);
  EXPECT_LT(queue.resident_bytes(), 3 * SendQueue::kSegmentTarget);
  // clear() after partial consumption must also release everything but the
  // recycled spare.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(queue.commit(enqueue_frame(queue, kFrame)));
  }
  queue.consume(10);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_LT(queue.resident_bytes(), 3 * SendQueue::kSegmentTarget);
}

// ---- Slow-reader retention & coalescing over real sockets --------------------

/// Minimal actor that floods a peer with aux-padded Updates on demand.
/// flood() must run on the transport's loop thread (call it via post()).
struct Flooder final : Actor {
  void on_start(Context& ctx) override { ctx_ = &ctx; }
  void on_message(Context&, ProcessId, const Payload&) override {}
  void flood(ProcessId to, int frames, std::size_t aux_words) {
    for (int i = 0; i < frames; ++i) {
      Value value;
      value.data = i;
      value.aux.assign(aux_words, 0x77);
      ctx_->send(to, make_payload<abd::Update>(1, 0, abd::Tag{1, 0},
                                               std::move(value)));
    }
  }
  Context* ctx_{nullptr};
};

Transport::SendQueueStats queue_stats(Transport& transport, ProcessId peer) {
  std::promise<Transport::SendQueueStats> snapshot;
  transport.post(
      [&] { snapshot.set_value(transport.send_queue_stats(peer)); });
  return snapshot.get_future().get();
}

// Regression for the send-buffer retention bug: the old transport kept one
// monotone send buffer per peer and only reclaimed it when the buffer
// drained COMPLETELY, so a slow reader pinned every already-written byte.
// Pump ~16 MiB at a stalled reader, let it drain, and require the sender's
// resident send-queue memory to fall back to the recycled-spare bound.
// Run under ASan in CI, this also proves the segment recycling in
// SendQueue::consume/clear never touches freed memory.
TEST(NetTransport, SlowReaderDoesNotPinConsumedSendBuffers) {
  constexpr int kFrames = 2000;
  constexpr std::size_t kAuxWords = 1024;  // ~8 KiB per frame on the wire

  std::vector<std::unique_ptr<Transport>> transports;
  std::vector<Flooder*> actors;
  for (ProcessId id = 0; id < 2; ++id) {
    TransportOptions options;
    options.self = id;
    options.world_size = 2;
    options.max_send_buffer = 64 * 1024 * 1024;
    auto actor = std::make_unique<Flooder>();
    actors.push_back(actor.get());
    transports.push_back(
        std::make_unique<Transport>(std::move(options), std::move(actor)));
  }
  std::vector<Address> table;
  for (auto& transport : transports) {
    Address address;
    address.port = transport->bind(address);
    table.push_back(address);
  }
  for (auto& transport : transports) transport->start(table);

  // Stall the receiver: while its loop thread sleeps it accepts no bytes,
  // so everything past the kernel socket buffers stays queued at the sender.
  transports[1]->post([] { std::this_thread::sleep_for(400ms); });
  std::this_thread::sleep_for(50ms);

  Flooder* flooder = actors[0];
  std::promise<void> flooded;
  transports[0]->post([&] {
    flooder->flood(1, kFrames, kAuxWords);
    flooded.set_value();
  });
  ASSERT_EQ(flooded.get_future().wait_for(10s), std::future_status::ready);

  const auto stalled = queue_stats(*transports[0], 1);
  EXPECT_EQ(stalled.frames_committed, static_cast<std::uint64_t>(kFrames));
  // The kernel cannot have swallowed 16 MiB of loopback; megabytes must be
  // queued at the sender while the reader stalls.
  EXPECT_GT(stalled.queued_bytes, 1u << 20);

  const auto deadline = std::chrono::steady_clock::now() + 20s;
  Transport::SendQueueStats drained;
  for (;;) {
    drained = queue_stats(*transports[0], 1);
    if (drained.queued_bytes == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << drained.queued_bytes << " bytes still queued";
    std::this_thread::sleep_for(20ms);
  }
  // Fully drained: resident memory is the recycled spare plus at most one
  // warm segment, not the ~16 MiB that crossed the queue.
  EXPECT_LT(drained.resident_bytes,
            2 * SendQueue::kSegmentTarget + 16 * 1024);

  for (auto& transport : transports) transport->stop();
}

// The coalescing counters added with the writev path: a quorum workload
// must show frames sharing writev(2) calls (frames_out >= writev_calls,
// with at least as many iovecs as calls) and reads draining whole socket
// buffers rather than one frame per read(2).
TEST(NetTransport, CoalescingCountersAccountSyscallSharing) {
  Metrics metrics;
  {
    Deployment deployment{3, &metrics};
    abd::SyncRegister client = deployment.client();
    for (int op = 0; op < 20; ++op) {
      Value value;
      value.data = op;
      ASSERT_TRUE(client.write(0, value, 5s).has_value());
      ASSERT_TRUE(client.read(0, 5s).has_value());
    }
  }
  const std::uint64_t writev_calls = metrics.counter("net.writev_calls");
  const std::uint64_t writev_iovecs = metrics.counter("net.writev_iovecs");
  const std::uint64_t read_calls = metrics.counter("net.read_calls");
  const std::uint64_t frames_out = metrics.counter("net.frames_out");
  const std::uint64_t frames_in = metrics.counter("net.frames_in");
  EXPECT_GT(writev_calls, 0u);
  EXPECT_GT(read_calls, 0u);
  EXPECT_GE(writev_iovecs, writev_calls);
  EXPECT_GE(frames_out, writev_calls);  // never more syscalls than frames
  EXPECT_GT(frames_in, 0u);
  EXPECT_EQ(metrics.counter("net.frame_decode_errors"), 0u);
}

// ---- Reconnect backoff jitter (PR 6) ----------------------------------------------
//
// The pre-PR-6 backoff doubled deterministically from the same floor, so
// every replica that lost the same peer redialed on the identical schedule
// — a permanent thundering herd against the restarted listener. The
// decorrelated-jitter draw breaks the lockstep while keeping each process's
// schedule deterministic for a fixed seed (TransportOptions::
// reconnect_jitter_seed mixed with self).

TEST(ReconnectBackoff, RedialSchedulesDivergeAcrossProcesses) {
  using namespace std::chrono_literals;
  const Duration floor = 20ms;
  const Duration cap = 1s;
  // Two processes losing the same peer at the same instant: identical
  // options, different self -> different jitter streams (the transport
  // mixes self into the seed; two distinct Rng seeds model that here).
  Rng rng_a{1};
  Rng rng_b{2};
  Duration backoff_a{};
  Duration backoff_b{};
  Duration redial_a{};
  Duration redial_b{};
  bool diverged = false;
  for (int attempt = 0; attempt < 16; ++attempt) {
    backoff_a = next_reconnect_backoff(backoff_a, floor, cap, rng_a);
    backoff_b = next_reconnect_backoff(backoff_b, floor, cap, rng_b);
    redial_a += backoff_a;
    redial_b += backoff_b;
    diverged = diverged || redial_a != redial_b;
  }
  EXPECT_TRUE(diverged) << "both processes redialed in lockstep";
}

TEST(ReconnectBackoff, ScheduleIsDeterministicForASeed) {
  using namespace std::chrono_literals;
  Rng first{42};
  Rng second{42};
  Duration a{};
  Duration b{};
  for (int attempt = 0; attempt < 16; ++attempt) {
    a = next_reconnect_backoff(a, 20ms, 1s, first);
    b = next_reconnect_backoff(b, 20ms, 1s, second);
    EXPECT_EQ(a, b);
  }
}

TEST(ReconnectBackoff, DrawsStayWithinDecorrelatedBounds) {
  using namespace std::chrono_literals;
  const Duration floor = 20ms;
  const Duration cap = 1s;
  Rng rng{7};
  Duration previous{};
  for (int attempt = 0; attempt < 200; ++attempt) {
    const Duration effective_prev = previous < floor ? floor : previous;
    const Duration drawn = next_reconnect_backoff(previous, floor, cap, rng);
    EXPECT_GE(drawn, floor);
    EXPECT_LE(drawn, std::min(cap, 3 * effective_prev));
    previous = drawn;
  }
  // The cap binds: a long failure streak cannot wait longer than cap.
  Rng greedy{9};
  Duration worst{};
  for (int attempt = 0; attempt < 50; ++attempt) {
    worst = std::max(worst, next_reconnect_backoff(cap, floor, cap, greedy));
  }
  EXPECT_LE(worst, cap);
}

}  // namespace
}  // namespace abdkit::net

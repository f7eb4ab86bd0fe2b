// Model-checking scenarios: a fixed deployment of unmodified abd::Node
// actors plus per-process operation programs, with history recording and
// invariant monitors wired in.
//
// A scenario is cheap to construct and is rebuilt from its options for
// every execution the explorer replays — actors are not copyable, so the
// checker is stateless (CHESS-style): state is reproduced by re-running a
// choice prefix, never snapshotted.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/checker/history.hpp"
#include "abdkit/mck/controlled_world.hpp"
#include "abdkit/mck/invariants.hpp"
#include "abdkit/quorum/quorum_system.hpp"
#include "abdkit/reconfig/node.hpp"
#include "abdkit/shard/node.hpp"

namespace abdkit::mck {

/// One operation of a per-process program.
struct ScenarioOp {
  bool is_write{false};
  abd::ObjectId object{0};
  std::int64_t value{0};  ///< written value (ignored for reads)
};

[[nodiscard]] inline ScenarioOp write_op(std::int64_t value,
                                         abd::ObjectId object = 0) {
  return ScenarioOp{true, object, value};
}
[[nodiscard]] inline ScenarioOp read_op(abd::ObjectId object = 0) {
  return ScenarioOp{false, object, 0};
}

struct ScenarioOptions {
  /// Number of processes; every process runs a full abd::Node (replica +
  /// client), mirroring the paper's "every processor plays both roles".
  std::size_t num_processes{3};
  /// programs[p] is the sequence of operations process p invokes, each
  /// starting only after the previous one completed. Shorter than
  /// num_processes is fine — remaining processes are pure replicas.
  std::vector<std::vector<ScenarioOp>> programs;
  abd::ReadMode read_mode{abd::ReadMode::kAtomic};
  abd::WriteMode write_mode{abd::WriteMode::kSingleWriter};
  /// Client-side masking threshold (see abd::ClientOptions::byzantine_f).
  std::size_t byzantine_f{0};
  /// Protocol variant every client runs (see abd/strategy.hpp). Fast-capable
  /// variants additionally arm the I4 fast-return-residence monitor: every
  /// 1-round atomic read is checked against replica state at that instant.
  abd::ProtocolVariant variant{abd::ProtocolVariant::kBaseline};
  /// Re-injects the PR-1 duplicate-reply vote-inflation bug (see
  /// abd::ClientOptions::testing_revert_duplicate_reply_gate). Used by
  /// regression scenarios proving the explorer rediscovers the bug.
  bool revert_duplicate_reply_gate{false};
  /// Crash-resilience parameter f for variants that need it (kImbs requires
  /// f >= 1 and num_processes >= 3f+1; see abd::ClientOptions::resilience_f).
  std::size_t resilience_f{0};
  /// Nonempty = sharded mode: every process runs a shard::Node over
  /// ShardMap{epoch 1, shard_groups} instead of an abd::Node, and each
  /// program op routes through the process's Router. The explorer then
  /// verifies exhaustively that independent quorum groups compose: every
  /// interleaving of cross-group traffic through the shared ControlledWorld
  /// still yields a per-key linearizable history. Monitors in this mode:
  /// tag monotonicity stays armed (it is per-replica, group-agnostic);
  /// quorum-completion and fast-return-residence are skipped — both are
  /// written against a single global quorum system, while a sharded world
  /// has one majority system per group.
  std::vector<std::vector<ProcessId>> shard_groups;
  /// Nonempty = reconfiguration mode: every process runs a reconfig::Node
  /// (replica + epoch-aware client + dormant admin) with this membership at
  /// epoch 0, and each program op routes through the process's reconfig
  /// client. Clients run in park-only mode (retry_delay 0: fence-parked ops
  /// resume only on Commit) and the admin retry machinery stays disabled —
  /// both keep the state space finite, since the explorer itself supplies
  /// the adversarial schedules a timer would. Monitors are skipped: they
  /// are written against the 0x01xx abd message family, while this mode
  /// speaks 0x07xx; the terminal per-object linearizability check is the
  /// ground truth. Mutually exclusive with shard_groups.
  std::vector<ProcessId> reconfig_members;
  /// Nonempty (requires reconfig_members) = register one extra stimulus:
  /// process `reconfig_admin` drives a live membership change to this
  /// target, racing the programs — the explorer interleaves every
  /// fence/transfer/commit step with the reads and writes (and any crash
  /// choices the ExploreOptions budget allows).
  std::vector<ProcessId> reconfig_target;
  ProcessId reconfig_admin{0};
  /// How many operations of one process's program may be in flight at once.
  /// 1 (the default) serializes each program — the classic closed-loop
  /// client. W > 1 models a pipelined client (bench_p1): ops i < W start
  /// enabled and completing op i enables op i+W, so up to W quorum
  /// conversations from one process overlap. The linearizability checker is
  /// interval-based (process identity is irrelevant to it), so overlapping
  /// same-process ops are fully checkable; History::well_formed, which
  /// asserts per-process non-overlap, is a test-only helper and is
  /// deliberately not part of this harness.
  std::size_t pipeline_window{1};
};

class RegisterScenario {
 public:
  explicit RegisterScenario(ScenarioOptions options);

  RegisterScenario(const RegisterScenario&) = delete;
  RegisterScenario& operator=(const RegisterScenario&) = delete;

  [[nodiscard]] ControlledWorld& world() noexcept { return *world_; }
  [[nodiscard]] const ScenarioOptions& options() const noexcept { return options_; }

  /// issues_ops()[p]: whether process p invokes operations. Deliveries to
  /// two distinct op-issuing processes are treated as dependent by the
  /// explorer (their order shapes the recorded real-time history).
  [[nodiscard]] const std::vector<bool>& issues_ops() const noexcept {
    return issues_ops_;
  }

  /// Polled by the explorer after every executed choice; the first
  /// stepwise-invariant failure, as "<monitor>: <detail>".
  [[nodiscard]] std::optional<std::string> invariant_violation() const;

  /// The operation history so far: completed ops plus issued-but-pending
  /// ops (invoker crashed or starved). Suitable for the final
  /// linearizability check at a terminal state.
  [[nodiscard]] checker::History history() const;

  /// Digest of actor-visible state: replica slots, client phase state (via
  /// abd::Client::state_digest), and per-op progress. Combined with
  /// ControlledWorld::transport_digest for state-hash pruning.
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Quorum rounds per issued operation, parallel to history()'s records
  /// (process-major, program order; 0 for ops still pending). Lets replay
  /// tests assert WHICH path an operation took — 1-round fast return vs
  /// 2-round write-back — not just that the history linearizes.
  [[nodiscard]] std::vector<std::uint32_t> op_rounds() const;

  /// Reconfiguration-mode introspection (terminal-state assertions): the
  /// admin stimulus ran to Commit, and process p's reconfig node.
  [[nodiscard]] bool reconfig_completed() const noexcept {
    return reconfig_completed_;
  }
  [[nodiscard]] reconfig::Node& reconfig_node(ProcessId p) {
    return *reconfig_nodes_.at(p);
  }

 private:
  struct OpState {
    bool issued{false};
    bool completed{false};
    TimePoint invoked{};
    TimePoint responded{};
    std::uint32_t rounds{0};  ///< quorum rounds the completed op used
    std::int64_t value{0};    ///< read result or written value
  };

  void invoke(ProcessId p, std::size_t index);
  void on_done(ProcessId p, std::size_t index, const abd::OpResult& result);
  [[nodiscard]] std::uint64_t history_rank_digest() const;

  // mck-digest: exclude(scenario configuration fixed before exploration)
  ScenarioOptions options_;
  // mck-digest: exclude(quorum system is fixed at construction)
  std::shared_ptr<const quorum::QuorumSystem> quorums_;
  std::unique_ptr<ControlledWorld> world_;
  std::vector<abd::Node*> nodes_;         // borrowed from world_ (unsharded mode)
  std::vector<shard::Node*> shard_nodes_;  // borrowed from world_ (sharded mode)
  std::vector<reconfig::Node*> reconfig_nodes_;  // borrowed (reconfig mode)
  bool reconfig_completed_{false};
  // mck-digest: exclude(fixed stimulus schedule, written once during setup)
  std::vector<bool> issues_ops_;
  std::vector<std::vector<OpState>> op_states_;
  // mck-digest: exclude(fixed stimulus schedule, written once during setup)
  std::vector<std::vector<std::uint64_t>> stimulus_ids_;
  // mck-digest: exclude(monitors observe transitions, they never steer them)
  std::vector<std::unique_ptr<Monitor>> monitors_;
  // mck-digest: exclude(borrowed alias into monitors_)
  FastReturnResidenceMonitor* residence_{nullptr};  // borrowed from monitors_
};

}  // namespace abdkit::mck

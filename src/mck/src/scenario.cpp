#include "abdkit/mck/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace abdkit::mck {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

RegisterScenario::RegisterScenario(ScenarioOptions options)
    : options_{std::move(options)} {
  const std::size_t n = options_.num_processes;
  if (n == 0) throw std::invalid_argument{"RegisterScenario: empty world"};
  if (options_.programs.size() > n) {
    throw std::invalid_argument{"RegisterScenario: more programs than processes"};
  }
  if (options_.pipeline_window == 0) {
    throw std::invalid_argument{"RegisterScenario: pipeline_window must be >= 1"};
  }
  quorums_ = std::make_shared<quorum::MajorityQuorum>(n);
  world_ = std::make_unique<ControlledWorld>(n);

  abd::ClientOptions client;
  client.byzantine_f = options_.byzantine_f;
  client.variant = options_.variant;
  client.resilience_f = options_.resilience_f;
  client.testing_revert_duplicate_reply_gate = options_.revert_duplicate_reply_gate;

  if (!options_.reconfig_members.empty() && !options_.shard_groups.empty()) {
    throw std::invalid_argument{
        "RegisterScenario: reconfig_members and shard_groups are exclusive"};
  }
  if (!options_.reconfig_target.empty() && options_.reconfig_members.empty()) {
    throw std::invalid_argument{
        "RegisterScenario: reconfig_target requires reconfig_members"};
  }

  std::vector<const abd::Replica*> replicas;
  if (!options_.reconfig_members.empty()) {
    // Reconfiguration mode: every process runs the composite reconfig node.
    // Park-only clients (retry_delay zero) and a disabled admin RetryPolicy
    // keep the space finite — the explorer supplies the adversity timers
    // would. Monitors stay off (they speak the abd family); the terminal
    // per-object linearizability check is the ground truth.
    for (const ProcessId member : options_.reconfig_members) {
      if (member >= n) {
        throw std::invalid_argument{
            "RegisterScenario: reconfig member out of range"};
      }
    }
    for (const ProcessId member : options_.reconfig_target) {
      if (member >= n) {
        throw std::invalid_argument{
            "RegisterScenario: reconfig target member out of range"};
      }
    }
    if (!options_.reconfig_target.empty() && options_.reconfig_admin >= n) {
      throw std::invalid_argument{"RegisterScenario: reconfig admin out of range"};
    }
    reconfig::NodeOptions node_options;
    node_options.initial = reconfig::Config{0, options_.reconfig_members};
    node_options.retry_delay = Duration::zero();
    for (ProcessId p = 0; p < n; ++p) {
      auto node = std::make_unique<reconfig::Node>(node_options);
      reconfig_nodes_.push_back(node.get());
      world_->add_actor(p, std::move(node));
    }
  } else if (!options_.shard_groups.empty()) {
    // Sharded mode: one shard::Node per process, all sharing the same map.
    // The per-group clients build their own MajorityQuorum over group size.
    const shard::ShardMap map{1, options_.shard_groups};
    for (const auto& members : map.groups()) {
      for (const ProcessId member : members) {
        if (member >= n) {
          throw std::invalid_argument{
              "RegisterScenario: shard group member out of range"};
        }
      }
    }
    for (ProcessId p = 0; p < n; ++p) {
      auto node = std::make_unique<shard::Node>(shard::NodeOptions{
          map, options_.read_mode, options_.write_mode, client});
      shard_nodes_.push_back(node.get());
      replicas.push_back(&node->replica());
      world_->add_actor(p, std::move(node));
    }
    // Only tag monotonicity is armed here: quorum-completion and
    // fast-return-residence model a single global quorum system, which a
    // sharded world does not have (each group runs its own majority). The
    // terminal-state per-key linearizability check remains the ground truth.
    monitors_.push_back(std::make_unique<TagMonotonicityMonitor>(std::move(replicas)));
    world_->set_delivery_hook([this](const DeliveryInfo& info) {
      for (const auto& m : monitors_) m->on_deliver(info);
    });
    world_->set_crash_hook([this](ProcessId p) {
      for (const auto& m : monitors_) m->on_crash(p);
    });
  } else {
    for (ProcessId p = 0; p < n; ++p) {
      auto node = std::make_unique<abd::Node>(abd::NodeOptions{
          quorums_, options_.read_mode, options_.write_mode, client});
      nodes_.push_back(node.get());
      replicas.push_back(&node->replica());
      world_->add_actor(p, std::move(node));
    }

    // kImbs justifies its fast path by an (f+1)-witness set rather than
    // write-quorum residence — arm I4 with the matching predicate.
    const std::size_t min_holders = options_.variant == abd::ProtocolVariant::kImbs
                                        ? options_.resilience_f + 1
                                        : 0;
    auto residence_monitor =
        std::make_unique<FastReturnResidenceMonitor>(replicas, quorums_, min_holders);
    residence_ = residence_monitor.get();
    monitors_.push_back(std::move(residence_monitor));
    monitors_.push_back(std::make_unique<TagMonotonicityMonitor>(std::move(replicas)));
    auto quorum_monitor = std::make_unique<QuorumCompletionMonitor>(quorums_);
    QuorumCompletionMonitor* qm = quorum_monitor.get();
    monitors_.push_back(std::move(quorum_monitor));

    world_->set_delivery_hook([this](const DeliveryInfo& info) {
      for (const auto& m : monitors_) m->on_deliver(info);
    });
    world_->set_crash_hook([this](ProcessId p) {
      for (const auto& m : monitors_) m->on_crash(p);
    });
    world_->set_send_hook([qm](ProcessId from, ProcessId to, const Payload& payload) {
      qm->on_send(from, to, payload);
    });
  }

  // Register every operation as a stimulus up front so stimulus ids are a
  // pure function of the options (process-major, program order), not of the
  // schedule. Only the head of each program starts enabled.
  issues_ops_.assign(n, false);
  op_states_.resize(options_.programs.size());
  stimulus_ids_.resize(options_.programs.size());
  for (ProcessId p = 0; p < options_.programs.size(); ++p) {
    op_states_[p].resize(options_.programs[p].size());
    for (std::size_t i = 0; i < options_.programs[p].size(); ++i) {
      issues_ops_[p] = true;
      stimulus_ids_[p].push_back(
          world_->add_stimulus(p, [this, p, i] { invoke(p, i); }));
    }
    // The first pipeline_window ops of each program start enabled; each
    // completion slides the window (see on_done). Window 1 is the classic
    // one-op-at-a-time client.
    for (std::size_t i = 0;
         i < stimulus_ids_[p].size() && i < options_.pipeline_window; ++i) {
      world_->enable_stimulus(stimulus_ids_[p][i]);
    }
  }

  // The live membership change is one more stimulus racing the programs:
  // the explorer interleaves every fence/transfer/commit step with them.
  if (!options_.reconfig_target.empty()) {
    const ProcessId admin = options_.reconfig_admin;
    issues_ops_[admin] = true;
    const std::uint64_t id = world_->add_stimulus(admin, [this, admin] {
      reconfig_nodes_[admin]->reconfigure(
          options_.reconfig_target,
          [this](const reconfig::ReconfigResult&) { reconfig_completed_ = true; });
    });
    world_->enable_stimulus(id);
  }

  world_->start();
}

void RegisterScenario::invoke(ProcessId p, std::size_t index) {
  const ScenarioOp& op = options_.programs[p][index];
  OpState& state = op_states_[p][index];
  state.issued = true;
  state.invoked = world_->now();
  state.value = op.value;
  if (!reconfig_nodes_.empty()) {
    // Adapt the reconfig result shape: phases play the role of rounds (a
    // parked-and-resumed op reports every quorum conversation it paid for).
    auto done = [this, p, index](const reconfig::OpResult& result) {
      abd::OpResult adapted;
      adapted.value = result.value;
      adapted.tag = result.tag;
      adapted.invoked = result.invoked;
      adapted.responded = result.responded;
      adapted.rounds = result.phases;
      on_done(p, index, adapted);
    };
    if (op.is_write) {
      reconfig_nodes_[p]->write(op.object, Value{op.value}, std::move(done));
    } else {
      reconfig_nodes_[p]->read(op.object, std::move(done));
    }
    return;
  }
  auto done = [this, p, index](const abd::OpResult& result) {
    on_done(p, index, result);
  };
  abd::RegisterNode* node = shard_nodes_.empty()
                                ? static_cast<abd::RegisterNode*>(nodes_[p])
                                : shard_nodes_[p];
  if (op.is_write) {
    node->write(op.object, Value{op.value}, std::move(done));
  } else {
    node->read(op.object, std::move(done));
  }
}

void RegisterScenario::on_done(ProcessId p, std::size_t index,
                               const abd::OpResult& result) {
  const ScenarioOp& op = options_.programs[p][index];
  OpState& state = op_states_[p][index];
  state.completed = true;
  state.responded = world_->now();
  state.rounds = result.rounds;
  if (!op.is_write) state.value = result.value.data;

  // I4: a 1-round atomic read is a fast return (baseline atomic reads
  // always pay 2 rounds) — verify the residence postcondition now, against
  // replica state at this instant.
  if (!op.is_write && options_.read_mode == abd::ReadMode::kAtomic &&
      result.rounds == 1 && residence_ != nullptr) {
    residence_->on_fast_return(p, op.object, result.tag);
  }

  const checker::OpRecord record{
      p,
      op.is_write ? checker::OpType::kWrite : checker::OpType::kRead,
      op.object,
      state.value,
      state.invoked,
      state.responded,
      true};
  for (const auto& m : monitors_) m->on_op_complete(p, record);

  if (index + options_.pipeline_window < stimulus_ids_[p].size()) {
    world_->enable_stimulus(stimulus_ids_[p][index + options_.pipeline_window]);
  }
}

std::optional<std::string> RegisterScenario::invariant_violation() const {
  for (const auto& m : monitors_) {
    m->after_step();
    if (const auto failure = m->failed()) {
      return m->name() + ": " + *failure;
    }
  }
  return std::nullopt;
}

std::vector<std::uint32_t> RegisterScenario::op_rounds() const {
  std::vector<std::uint32_t> rounds;
  for (ProcessId p = 0; p < op_states_.size(); ++p) {
    for (const OpState& state : op_states_[p]) {
      if (state.issued) rounds.push_back(state.rounds);
    }
  }
  return rounds;
}

checker::History RegisterScenario::history() const {
  checker::History h;
  for (ProcessId p = 0; p < op_states_.size(); ++p) {
    for (std::size_t i = 0; i < op_states_[p].size(); ++i) {
      const OpState& state = op_states_[p][i];
      if (!state.issued) continue;
      const ScenarioOp& op = options_.programs[p][i];
      h.add(checker::OpRecord{
          p,
          op.is_write ? checker::OpType::kWrite : checker::OpType::kRead,
          op.object,
          state.value,
          state.invoked,
          state.responded,
          state.completed});
    }
  }
  return h;
}

std::uint64_t RegisterScenario::state_digest() const {
  std::uint64_t h = kFnvOffset;
  if (!reconfig_nodes_.empty()) {
    for (ProcessId p = 0; p < reconfig_nodes_.size(); ++p) {
      reconfig::Node& node = *reconfig_nodes_[p];
      std::uint64_t slots = 0;
      for (const auto& [object, slot] : node.replica().slots_snapshot()) {
        std::uint64_t sh = kFnvOffset;
        sh = fnv1a(sh, object);
        sh = fnv1a(sh, slot.tag.seq);
        sh = fnv1a(sh, slot.tag.writer);
        sh = fnv1a(sh, static_cast<std::uint64_t>(slot.value.data));
        slots += sh;
      }
      h = fnv1a(h, slots);
      h = fnv1a(h, node.replica().config().epoch);
      h = fnv1a(h, node.replica().fenced() ? 1ULL : 0ULL);
      // Epoch-ahead phases held for the next Commit; arrival order of
      // buffered entries does not matter (each replays independently).
      std::uint64_t buffered = 0;
      for (const auto& phase : node.replica().buffered()) {
        std::uint64_t bh = kFnvOffset;
        bh = fnv1a(bh, phase.from);
        bh = fnv1a(bh, phase.is_update ? 1ULL : 0ULL);
        bh = fnv1a(bh, phase.round);
        bh = fnv1a(bh, phase.object);
        bh = fnv1a(bh, phase.tag.seq);
        bh = fnv1a(bh, phase.tag.writer);
        bh = fnv1a(bh, static_cast<std::uint64_t>(phase.value.data));
        bh = fnv1a(bh, phase.epoch);
        buffered += bh;
      }
      h = fnv1a(h, buffered);
      h = fnv1a(h, node.client().state_digest());
      h = fnv1a(h, node.admin().state_digest());
      h = fnv1a(h, world_->crashed(p) ? 1ULL : 0ULL);
    }
    h = fnv1a(h, reconfig_completed_ ? 1ULL : 0ULL);
    return fnv1a(h, history_rank_digest());
  }
  const std::size_t world_n =
      shard_nodes_.empty() ? nodes_.size() : shard_nodes_.size();
  for (ProcessId p = 0; p < world_n; ++p) {
    const abd::Replica& replica =
        shard_nodes_.empty() ? nodes_[p]->replica() : shard_nodes_[p]->replica();
    // Replica slots combine order-insensitively: the snapshot comes from an
    // unordered_map whose iteration order depends on insertion history.
    std::uint64_t slots = 0;
    for (const auto& [object, slot] : replica.slots_snapshot()) {
      std::uint64_t sh = kFnvOffset;
      sh = fnv1a(sh, object);
      sh = fnv1a(sh, slot.tag.seq);
      sh = fnv1a(sh, slot.tag.writer);
      sh = fnv1a(sh, static_cast<std::uint64_t>(slot.value.data));
      slots += sh;
    }
    h = fnv1a(h, slots);
    h = fnv1a(h, shard_nodes_.empty() ? nodes_[p]->client().state_digest()
                                      : shard_nodes_[p]->router().state_digest());
    h = fnv1a(h, world_->crashed(p) ? 1ULL : 0ULL);
  }
  return fnv1a(h, history_rank_digest());
}

std::uint64_t RegisterScenario::history_rank_digest() const {
  std::uint64_t h = kFnvOffset;
  // Fold the recorded history with rank-compressed times. The
  // linearizability verdict depends only on the relative order of recorded
  // invocations and responses, and every event a future suffix appends lies
  // after all of these, so two states that agree on protocol state and on
  // this rank pattern have identical verdicts for every suffix. Raw
  // timestamps would block that merging (each prefix length shifts them).
  std::vector<TimePoint> times;
  for (const auto& program : op_states_) {
    for (const OpState& state : program) {
      if (state.issued) times.push_back(state.invoked);
      if (state.completed) times.push_back(state.responded);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  const auto rank = [&times](TimePoint t) {
    return static_cast<std::uint64_t>(
        std::lower_bound(times.begin(), times.end(), t) - times.begin());
  };
  for (const auto& program : op_states_) {
    for (const OpState& state : program) {
      h = fnv1a(h, (state.issued ? 1ULL : 0ULL) | (state.completed ? 2ULL : 0ULL));
      h = fnv1a(h, static_cast<std::uint64_t>(state.value));
      h = fnv1a(h, state.issued ? rank(state.invoked) + 1 : 0);
      h = fnv1a(h, state.completed ? rank(state.responded) + 1 : 0);
    }
  }
  return h;
}

}  // namespace abdkit::mck

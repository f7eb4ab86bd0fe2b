#include "abdkit/abd/client.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "abdkit/common/metrics.hpp"
#include "abdkit/quorum/analysis.hpp"

namespace abdkit::abd {

Client::Client(std::shared_ptr<const quorum::QuorumSystem> quorums, ReadMode read_mode,
               ClientOptions options)
    : quorums_{std::move(quorums)},
      read_mode_{read_mode},
      options_{options},
      strategy_{options.variant, options.resilience_f},
      next_round_{options.round_base + 1},
      metrics_{options.metrics} {
  if (quorums_ == nullptr) throw std::invalid_argument{"Client: null quorum system"};
  if (options_.contact == ContactPolicy::kTargeted &&
      options_.retransmit_interval <= Duration::zero()) {
    // A crashed preferred-quorum member would otherwise stall the phase
    // forever even though live quorums exist.
    throw std::invalid_argument{
        "Client: targeted contact requires a positive retransmit_interval"};
  }
}

void Client::attach(Context& ctx) {
  if (ctx_ != nullptr) throw std::logic_error{"Client: attach called twice"};
  if (quorums_->n() != ctx.world_size()) {
    throw std::invalid_argument{"Client: quorum system size != world size"};
  }
  if (strategy_.variant() == ProtocolVariant::kImbs) {
    // The Imbs witness argument ((n-f) + (f+1) > n) needs a declared crash
    // budget, n >= 3f+1, and read quorums spanning at least n-f processes.
    // The span bound is checked on the size-(n-f-1) prefix set — exact for
    // the symmetric (majority/threshold) systems this repo deploys, where
    // quorumhood depends only on cardinality.
    const std::size_t f = options_.resilience_f;
    if (f == 0) {
      throw std::invalid_argument{"Client: kImbs requires resilience_f >= 1"};
    }
    if (quorums_->n() < 3 * f + 1) {
      throw std::invalid_argument{"Client: kImbs requires n >= 3f + 1"};
    }
    std::vector<bool> prefix(quorums_->n(), false);
    for (std::size_t p = 0; p + f + 1 < quorums_->n(); ++p) prefix[p] = true;
    if (quorums_->is_read_quorum(prefix)) {
      throw std::invalid_argument{
          "Client: kImbs needs read quorums of size >= n - f"};
    }
  }
  ctx_ = &ctx;
}

bool Client::handle(Context&, ProcessId from, const Payload& payload) {
  if (const auto* reply = payload_cast<ReadReply>(payload)) {
    on_read_reply(from, *reply);
    return true;
  }
  if (const auto* reply = payload_cast<TagReply>(payload)) {
    on_tag_reply(from, *reply);
    return true;
  }
  if (const auto* ack = payload_cast<UpdateAck>(payload)) {
    on_update_ack(from, *ack);
    return true;
  }
  return false;
}

void Client::read(ObjectId object, OpCallback done) {
  if (ctx_ == nullptr) throw std::logic_error{"Client: read before attach"};
  auto op = std::make_shared<PendingOp>();
  op->kind = OpKind::kRead;
  op->object = object;
  op->done = std::move(done);
  op->invoked = ctx_->now();
  ++pending_ops_;

  const RoundId id = begin_round(RoundKind::kCollectValues, op);
  dispatch_request(id, make_payload<ReadQuery>(id, object));
}

void Client::write_swmr(ObjectId object, Value value, OpCallback done) {
  if (ctx_ == nullptr) throw std::logic_error{"Client: write before attach"};
  auto op = std::make_shared<PendingOp>();
  op->kind = OpKind::kWriteSwmr;
  op->object = object;
  op->done = std::move(done);
  op->invoked = ctx_->now();
  ++pending_ops_;

  // SWMR skips tag discovery, so the value goes straight to the update
  // phase without parking a copy in the op (write_value is MWMR-only).
  const Tag tag{++swmr_seq_[object], ctx_->self()};
  start_update_phase(std::move(op), tag, std::move(value));
}

void Client::write_mwmr(ObjectId object, Value value, OpCallback done) {
  if (ctx_ == nullptr) throw std::logic_error{"Client: write before attach"};
  auto op = std::make_shared<PendingOp>();
  op->kind = OpKind::kWriteMwmr;
  op->object = object;
  op->write_value = std::move(value);
  op->done = std::move(done);
  op->invoked = ctx_->now();
  ++pending_ops_;

  const RoundId id = begin_round(RoundKind::kCollectTags, op);
  dispatch_request(id, make_payload<TagQuery>(id, object));
}

RoundId Client::begin_round(RoundKind kind, std::shared_ptr<PendingOp> op) {
  const RoundId id = next_round_++;
  Round round;
  round.kind = kind;
  round.op = std::move(op);
  round.acked.assign(quorums_->n(), false);
  round.started = ctx_->now();
  rounds_.emplace(id, std::move(round));
  return id;
}

void Client::record_phase(const Round& round) const {
  if (metrics_ == nullptr) return;
  const char* name = round.kind == RoundKind::kCollectValues ? "phase.value_collect_us"
                     : round.kind == RoundKind::kCollectTags ? "phase.tag_collect_us"
                                                             : "phase.ack_collect_us";
  metrics_->observe_us(name, ctx_->now() - round.started);
}

const std::vector<ProcessId>& Client::preferred_targets(RoundKind kind) {
  const bool write_side = kind == RoundKind::kCollectAcks;
  std::vector<ProcessId>& cache = write_side ? preferred_write_ : preferred_read_;
  if (cache.empty()) {
    const std::vector<bool> everyone(quorums_->n(), true);
    const auto quorum = write_side ? quorum::find_write_quorum(*quorums_, everyone)
                                   : quorum::find_read_quorum(*quorums_, everyone);
    // A quorum system with no quorum at all is rejected at construction by
    // every concrete system, so this always engages.
    cache = quorum.value();
  }
  return cache;
}

void Client::dispatch_request(RoundId id, PayloadPtr payload) {
  Round& round = rounds_.at(id);
  round.request = payload;
  round.op->rounds += 1;
  std::uint64_t sent = 0;
  if (options_.contact == ContactPolicy::kBroadcast) {
    sent = ctx_->world_size();
    ctx_->broadcast(std::move(payload));
  } else {
    const std::vector<ProcessId>& targets = preferred_targets(round.kind);
    sent = targets.size();
    for (const ProcessId p : targets) ctx_->send(p, payload);
  }
  round.op->messages_sent += sent;
  if (metrics_ != nullptr) metrics_->add("client.messages_sent", sent);
  arm_retransmit(id);
}

void Client::arm_retransmit(RoundId id) {
  if (options_.retransmit_interval <= Duration::zero()) return;
  Round& round = rounds_.at(id);
  round.retransmit_timer = ctx_->set_timer(options_.retransmit_interval,
                                           [this, id] { resend_unanswered(id); });
}

void Client::resend_unanswered(RoundId id) {
  const auto it = rounds_.find(id);
  if (it == rounds_.end()) return;  // phase completed since the timer armed
  Round& round = it->second;
  // Expansion: resends go to every silent process, regardless of contact
  // policy — this is what restores liveness when a targeted member is
  // crashed, and recovers lost messages either way.
  //
  // Accounting: resends land in `retransmissions`, not `messages_sent`.
  // The paper's complexity theorem (experiment E1) counts the protocol's
  // messages under reliable channels; retransmissions are an artifact of
  // the lossy-channel extension, and a replica that crashed silent forever
  // would otherwise keep charging the operation one message per timer tick
  // for traffic the protocol never needed — skewing per-op message counts
  // under faults. OpResult reports both quantities.
  std::uint64_t resent = 0;
  for (ProcessId p = 0; p < round.acked.size(); ++p) {
    if (round.acked[p]) continue;
    ++resent;
    ctx_->send(p, round.request);
  }
  round.op->retransmissions += resent;
  if (metrics_ != nullptr) {
    metrics_->add("client.retransmit_rounds");
    metrics_->add("client.messages_resent", resent);
  }
  arm_retransmit(id);
}

bool Client::all_acked(const Round& round) {
  for (const bool acked : round.acked) {
    if (!acked) return false;
  }
  return true;
}

void Client::requery(std::unordered_map<RoundId, Round>::iterator it) {
  if (metrics_ != nullptr) metrics_->add("client.requeries");
  Round old_round = std::move(it->second);
  if (old_round.retransmit_timer != 0) ctx_->cancel_timer(old_round.retransmit_timer);
  rounds_.erase(it);
  const RoundId id = begin_round(old_round.kind, std::move(old_round.op));
  const Round& fresh = rounds_.at(id);
  if (fresh.kind == RoundKind::kCollectValues) {
    dispatch_request(id, make_payload<ReadQuery>(id, fresh.op->object));
  } else {
    dispatch_request(id, make_payload<TagQuery>(id, fresh.op->object));
  }
}

std::string Client::debug_pending() const {
  std::ostringstream os;
  for (const auto& [id, round] : rounds_) {
    os << "round " << id << " kind="
       << (round.kind == RoundKind::kCollectValues
               ? "values"
               : round.kind == RoundKind::kCollectTags ? "tags" : "acks")
       << " acks=[";
    for (std::size_t p = 0; p < round.acked.size(); ++p) {
      if (round.acked[p]) os << p << " ";
    }
    os << "] candidates=";
    for (const Candidate& candidate : round.candidates) {
      os << to_string(candidate.tag) << "x" << candidate.votes << " ";
    }
    os << "\n";
  }
  return os.str();
}

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

std::uint64_t Client::state_digest() const {
  std::uint64_t h = fnv1a(kFnvOffset, next_round_);
  h = fnv1a(h, pending_ops_);
  // read_mode_ selects the read decision path (atomic vs regular); clients
  // in different modes must never merge even if the round tables look alike.
  h = fnv1a(h, static_cast<std::uint64_t>(read_mode_));
  // rounds_ and swmr_seq_ are unordered maps: combine per-entry digests with
  // + so the result is independent of iteration (= insertion) order, and two
  // logically equal states reached along different schedules hash equally.
  std::uint64_t rounds = 0;
  for (const auto& [id, round] : rounds_) {
    std::uint64_t rh = fnv1a(kFnvOffset, id);
    rh = fnv1a(rh, static_cast<std::uint64_t>(round.kind));
    std::uint64_t bits = 0;
    for (std::size_t p = 0; p < round.acked.size(); ++p) {
      if (round.acked[p]) bits |= 1ULL << (p % 64);
    }
    rh = fnv1a(rh, bits);
    rh = fnv1a(rh, round.replies);
    rh = fnv1a(rh, round.unanimous ? 1ULL : 0ULL);
    rh = fnv1a(rh, round.best_votes);
    rh = fnv1a(rh, round.best_tag.seq);
    rh = fnv1a(rh, round.best_tag.writer);
    rh = fnv1a(rh, static_cast<std::uint64_t>(round.best_value.data));
    rh = fnv1a(rh, round.install_tag.seq);
    rh = fnv1a(rh, round.install_tag.writer);
    rh = fnv1a(rh, static_cast<std::uint64_t>(round.install_value.data));
    std::uint64_t candidates = 0;
    for (const Candidate& candidate : round.candidates) {
      std::uint64_t ch = fnv1a(kFnvOffset, candidate.tag.seq);
      ch = fnv1a(ch, candidate.tag.writer);
      ch = fnv1a(ch, static_cast<std::uint64_t>(candidate.value.data));
      ch = fnv1a(ch, candidate.votes);
      candidates += ch;
    }
    rh = fnv1a(rh, candidates);
    rounds += rh;
  }
  h = fnv1a(h, rounds);
  std::uint64_t seqs = 0;
  for (const auto& [object, seq] : swmr_seq_) {
    seqs += fnv1a(fnv1a(kFnvOffset, object), seq);
  }
  h = fnv1a(h, seqs);
  // The committed-tag cache steers future round counts (kTimeEfficient
  // fast returns), so state hashing must distinguish states by it.
  return fnv1a(h, strategy_.state_digest());
}

const Client::Candidate* Client::vouch(Round& round, Tag tag, const Value& value) const {
  // Record the vote. One vote per distinct replica per round: callers
  // enforce the first-reply-per-round rule BEFORE calling vouch, so a
  // duplicate reply (retransmission or Byzantine repetition) never lands
  // here and can never inflate a candidate past the f+1 threshold.
  bool found = false;
  for (Candidate& candidate : round.candidates) {
    if (candidate.tag == tag && candidate.value == value) {
      ++candidate.votes;
      found = true;
      break;
    }
  }
  if (!found) round.candidates.push_back(Candidate{tag, value, 1});

  const Candidate* best = nullptr;
  for (const Candidate& candidate : round.candidates) {
    if (candidate.votes < options_.byzantine_f + 1) continue;
    if (best == nullptr || candidate.tag > best->tag) best = &candidate;
  }
  return best;
}

bool Client::record_ack(Round& round, ProcessId from) const {
  if (from >= round.acked.size() || round.acked[from]) return false;
  round.acked[from] = true;
  // Phase 1 of reads and of MWMR writes gathers information, so it needs a
  // read quorum; phases that install a (tag, value) need a write quorum.
  return round.kind == RoundKind::kCollectAcks ? quorums_->is_write_quorum(round.acked)
                                               : quorums_->is_read_quorum(round.acked);
}

void Client::start_update_phase(std::shared_ptr<PendingOp> op, Tag tag, Value value) {
  const RoundId id = begin_round(RoundKind::kCollectAcks, std::move(op));
  Round& round = rounds_.at(id);
  round.install_tag = tag;
  // One unavoidable copy — the round keeps the installed value for the
  // caller's OpResult while the message owns its own — made here, into the
  // payload; everything upstream moves.
  round.install_value = std::move(value);
  dispatch_request(id,
                   make_payload<Update>(id, round.op->object, tag, round.install_value));
}

void Client::on_read_reply(ProcessId from, const ReadReply& reply) {
  const auto it = rounds_.find(reply.round);
  if (it == rounds_.end() || it->second.kind != RoundKind::kCollectValues) return;
  Round& round = it->second;

  if (options_.byzantine_f == 0) {
    // Crash-only: any single reply is trusted; fold the running maximum.
    // best_* starts as (kInitialTag, default Value) — exactly the initial
    // register contents — so a strict comparison handles the first reply too.
    if (round.replies > 0 && reply.value_tag != round.best_tag) {
      round.unanimous = false;
    }
    const bool counted = from < round.acked.size() && !round.acked[from];
    if (reply.value_tag > round.best_tag) {
      round.best_tag = reply.value_tag;
      round.best_value = reply.value;
      // A new maximum restarts the witness count; an uncounted (duplicate)
      // reply raising it contributes no vote of its own — the first-reply
      // rule applies to witness counting exactly as it does to quorums.
      round.best_votes = 0;
    }
    if (counted) {
      ++round.replies;
      if (reply.value_tag == round.best_tag) ++round.best_votes;
    }
    if (!counted && metrics_ != nullptr) metrics_->add("client.duplicate_replies");
    if (!record_ack(round, from)) return;
  } else {
    // Masking: only candidates vouched by >= f+1 identical replies may be
    // believed. Completion requires a quorum AND a vouched candidate; keep
    // waiting for more replies until both hold (every new reply past the
    // quorum re-evaluates, since the quorum predicate is monotone). If every
    // process has answered and still nothing is vouched — possible when a
    // writer keeps moving the tag while replies trickle in, so the votes
    // span many tags — re-issue the query for a fresh, tighter sample.
    // (Termination therefore needs writes to pause eventually: the standard
    // "finite-write" liveness of masking-quorum reads.)
    //
    // First-reply-per-round rule: a repeated reply from the same replica —
    // retransmission answers, channel duplicates, or a Byzantine repeater —
    // contributes neither quorum progress nor a vote. Without this gate a
    // single faulty replica could vouch its own forged (tag, value) past
    // the f+1 threshold just by replying f+1 times.
    // (testing_revert_duplicate_reply_gate re-opens exactly this hole so
    // the model checker can demonstrate the resulting violation.)
    if (from >= round.acked.size() ||
        (round.acked[from] && !options_.testing_revert_duplicate_reply_gate)) {
      if (metrics_ != nullptr) metrics_->add("client.duplicate_replies");
      return;
    }
    const bool quorum = record_ack(round, from);
    const Candidate* best = vouch(round, reply.value_tag, reply.value);
    if (best == nullptr) {
      if (all_acked(round)) requery(it);
      return;
    }
    if (!quorum) return;
    round.best_tag = best->tag;
    round.best_value = best->value;
  }

  // Quorum reached: we hold the maximum tag among a read quorum. The round
  // dies here either way, so its best value moves out instead of copying.
  record_phase(round);
  std::shared_ptr<PendingOp> op = round.op;
  const Tag tag = round.best_tag;
  Value value = std::move(round.best_value);
  const bool round_was_unanimous = round.unanimous;
  const std::size_t round_best_votes = round.best_votes;
  if (round.retransmit_timer != 0) ctx_->cancel_timer(round.retransmit_timer);
  rounds_.erase(it);

  // The strategy's single read-completion decision point: every variant of
  // the protocol family resolves "write back or return now" here. A
  // requested-but-suppressed fast path is counted, never silent — the
  // pre-PR-6 predicate quietly paid 2 RTT per read under byzantine_f > 0
  // or ReadMode::kRegular with nothing observable.
  const ReadDecision decision = strategy_.on_collect_complete(
      read_mode_ == ReadMode::kAtomic, options_.byzantine_f, op->object, tag,
      round_was_unanimous, round_best_votes);
  if (decision.suppression != FastPathSuppression::kNone) {
    ++fast_path_suppressed_;
    last_suppression_ = decision.suppression;
    if (metrics_ != nullptr) metrics_->add("abd.fast_path_suppressed");
  }
  if (read_mode_ == ReadMode::kAtomic && !decision.fast) {
    // Write-back: make the value as widely known as a write would before
    // returning it — the step that turns regularity into atomicity.
    start_update_phase(std::move(op), tag, std::move(value));
    return;
  }
  // Fast path (the strategy proved the value already sits at a write
  // quorum — unanimous replies, or a committed-tag match under
  // kTimeEfficient — so the write-back would be a no-op) or regular
  // baseline (which skips the write-back unconditionally and pays with
  // new/old inversions).
  Round synthetic;
  synthetic.op = std::move(op);
  synthetic.install_tag = tag;
  synthetic.install_value = std::move(value);
  finish(synthetic);
}

void Client::on_tag_reply(ProcessId from, const TagReply& reply) {
  const auto it = rounds_.find(reply.round);
  if (it == rounds_.end() || it->second.kind != RoundKind::kCollectTags) return;
  Round& round = it->second;
  if (options_.byzantine_f == 0) {
    round.best_tag = std::max(round.best_tag, reply.value_tag);
    if (!record_ack(round, from)) return;
  } else {
    // Masking the tag discovery keeps forged sky-high tags from inflating
    // the tag space (a liveness/width attack, not a safety one). Same
    // first-reply-per-round rule as value collection: duplicates from one
    // replica must not accumulate votes toward the f+1 threshold.
    if (from >= round.acked.size() ||
        (round.acked[from] && !options_.testing_revert_duplicate_reply_gate)) {
      if (metrics_ != nullptr) metrics_->add("client.duplicate_replies");
      return;
    }
    const bool quorum = record_ack(round, from);
    const Candidate* best = vouch(round, reply.value_tag, Value{});
    if (best == nullptr) {
      if (all_acked(round)) requery(it);
      return;
    }
    if (!quorum) return;
    round.best_tag = best->tag;
  }

  record_phase(round);
  std::shared_ptr<PendingOp> op = round.op;
  // New tag: strictly above everything a read quorum has seen; the writer id
  // breaks ties between writers that picked the same sequence number.
  const Tag tag{round.best_tag.seq + 1, ctx_->self()};
  Value value = std::move(op->write_value);
  if (round.retransmit_timer != 0) ctx_->cancel_timer(round.retransmit_timer);
  rounds_.erase(it);
  start_update_phase(std::move(op), tag, std::move(value));
}

void Client::on_update_ack(ProcessId from, const UpdateAck& ack) {
  const auto it = rounds_.find(ack.round);
  if (it == rounds_.end() || it->second.kind != RoundKind::kCollectAcks) return;
  Round& round = it->second;
  if (!record_ack(round, from)) return;

  // A write quorum acknowledged install_tag: that tag now provably resides
  // at a write quorum forever (I1), which is the fact the kTimeEfficient
  // read strategy trades on.
  strategy_.note_committed(round.op->object, round.install_tag);
  record_phase(round);
  Round finished = std::move(round);
  if (finished.retransmit_timer != 0) ctx_->cancel_timer(finished.retransmit_timer);
  rounds_.erase(it);
  finish(finished);
}

void Client::finish(Round& round) {
  PendingOp& op = *round.op;
  OpResult result;
  // finish() consumes the round (every caller destroys it right after), so
  // the installed value moves into the result instead of copying.
  result.value = std::move(round.install_value);
  result.tag = round.install_tag;
  result.invoked = op.invoked;
  result.responded = ctx_->now();
  result.rounds = op.rounds;
  result.messages_sent = op.messages_sent;
  result.retransmissions = op.retransmissions;
  --pending_ops_;
  if (metrics_ != nullptr) {
    const char* timer = op.kind == OpKind::kRead        ? "op.read_us"
                        : op.kind == OpKind::kWriteSwmr ? "op.write_swmr_us"
                                                        : "op.write_mwmr_us";
    const Duration elapsed = result.responded - result.invoked;
    metrics_->observe_us(timer, elapsed);
    // Same key, histogram form: O(1) log-bucket record powering the p50/p99
    // columns without retaining a sample per op.
    metrics_->record_us(timer, elapsed);
    metrics_->add("client.ops_completed");
  }
  if (op.done) op.done(result);
}

}  // namespace abdkit::abd

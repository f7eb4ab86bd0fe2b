// Client half of the ABD protocol: the quorum phase machines.
//
// An operation is a sequence of one or two quorum rounds; in each round the
// client broadcasts a request and waits until the set of responders
// satisfies the quorum predicate. Operations never fail — if too many
// replicas crashed the operation simply never completes, which is the
// behaviour the n > 2f resilience bound (experiment E3) observes.
//
// Read (atomic):   ReadQuery -> read quorum -> Update(write-back) -> write quorum
// Read (regular):  ReadQuery -> read quorum                      [baseline, E4]
// Write (SWMR):    Update    -> write quorum
// Write (MWMR):    TagQuery  -> read quorum -> Update            -> write quorum
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "abdkit/abd/messages.hpp"
#include "abdkit/abd/strategy.hpp"
#include "abdkit/abd/tag.hpp"
#include "abdkit/common/transport.hpp"
#include "abdkit/quorum/quorum_system.hpp"

namespace abdkit {
class Metrics;
}

namespace abdkit::abd {

/// Delivered to the caller when an operation completes.
struct OpResult {
  Value value{};          ///< value read (for writes: the value written)
  Tag tag{};              ///< tag of the returned/installed value
  TimePoint invoked{};    ///< operation invocation time
  TimePoint responded{};  ///< operation response time
  std::uint32_t rounds{0};          ///< quorum rounds this operation used
  /// Protocol requests this client sent for it, excluding retransmissions —
  /// the quantity the paper's complexity theorem bounds (2n per phase under
  /// broadcast contact). Resends are an artifact of the lossy-channel
  /// extension and are reported separately below, so E1-style per-op counts
  /// stay comparable across fault scenarios (a crashed-silent replica would
  /// otherwise accrue unbounded charges the operation never needed).
  std::uint64_t messages_sent{0};
  std::uint64_t retransmissions{0};  ///< requests re-sent by the retry timer
};

using OpCallback = std::function<void(const OpResult&)>;

/// Read-side protocol variant. kRegular reproduces Thomas-style majority
/// voting (no write-back) — *not* atomic; kept as the ablation baseline.
enum class ReadMode { kAtomic, kRegular };

/// Who the initial request of each phase goes to.
enum class ContactPolicy {
  /// The paper's presentation: send to all n, wait for a quorum of answers.
  kBroadcast,
  /// Optimization: send to one preferred (minimal) quorum only and expand
  /// to everyone on the retransmission timer. Cuts steady-state messages to
  /// ~2|Q| per phase (a big win for grid/tree systems), at the price of a
  /// timeout-delayed recovery when a preferred member is crashed or slow.
  /// Requires retransmit_interval > 0 for liveness under crashes.
  kTargeted,
};

struct ClientOptions {
  /// Zero disables retransmission — the paper's reliable-channel model,
  /// keeping message counts exact. Positive: every interval, any phase
  /// still pending re-sends its request to the processes that have not
  /// answered (all handlers are idempotent, so this is safe and makes the
  /// protocol live under message loss).
  Duration retransmit_interval{Duration::zero()};
  ContactPolicy contact{ContactPolicy::kBroadcast};
  /// Byzantine masking (Malkhi–Reiter): when > 0, value/tag-collection
  /// phases only trust a candidate vouched by >= f+1 identical replies, and
  /// wait past the quorum until one exists. Deploy with a MaskingQuorum of
  /// the same f over n >= 4f+1 replicas. Zero = crash-only protocol.
  std::size_t byzantine_f{0};
  /// Which member of the protocol family this client runs — see
  /// strategy.hpp for the variants and their per-op cost formulas. The
  /// default is the paper's protocol (every atomic read writes back).
  ProtocolVariant variant{ProtocolVariant::kBaseline};
  /// Crash budget for ProtocolVariant::kImbs (witness threshold f+1).
  /// Required >= 1 for that variant, which also requires n >= 3f+1 —
  /// both validated at attach(). Ignored by every other variant.
  std::size_t resilience_f{0};
  /// First round id this client hands out is round_base + 1. The shard
  /// router gives each per-group client a disjoint id space (shard index in
  /// the high bits) so a reply's round field alone identifies the owning
  /// client. Zero (the default) keeps the historical ids 1, 2, ...
  RoundId round_base{0};
  /// Optional metrics registry (not owned; must outlive the client). When
  /// set, the client records per-phase latency timers and op/traffic
  /// counters into it — see metrics.hpp for the key conventions.
  Metrics* metrics{nullptr};
  /// TESTING ONLY. Re-injects the PR-1 masking-quorum bug: duplicate
  /// replies from one replica are fed to the vouch counter again instead of
  /// being dropped by the first-reply-per-round gate, so a repeated stale
  /// (or forged) reply can cross the f+1 threshold. Exists so the model
  /// checker (src/mck) can prove it rediscovers the historical bug as a
  /// non-linearizable counterexample. Never set outside mck regression
  /// scenarios; quorum membership accounting is unaffected either way.
  bool testing_revert_duplicate_reply_gate{false};
};

class Client {
 public:
  explicit Client(std::shared_ptr<const quorum::QuorumSystem> quorums,
                  ReadMode read_mode = ReadMode::kAtomic,
                  ClientOptions options = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Must be called (once) before issuing operations, from on_start.
  void attach(Context& ctx);

  /// Feeds a received payload to the phase machines; returns true if the
  /// payload was a client-protocol reply.
  bool handle(Context& ctx, ProcessId from, const Payload& payload);

  /// Begin an atomic (or regular, per mode) read of `object`.
  void read(ObjectId object, OpCallback done);

  /// Single-writer write: the caller must be the unique writer of `object`.
  /// One quorum round; the tag is the writer's next local sequence number.
  void write_swmr(ObjectId object, Value value, OpCallback done);

  /// Multi-writer write: first discovers the maximum installed tag from a
  /// read quorum, then installs (max.seq + 1, self).
  void write_mwmr(ObjectId object, Value value, OpCallback done);

  [[nodiscard]] ReadMode read_mode() const noexcept { return read_mode_; }
  void set_read_mode(ReadMode mode) noexcept { read_mode_ = mode; }

  /// The protocol variant this client runs.
  [[nodiscard]] ProtocolVariant variant() const noexcept {
    return strategy_.variant();
  }

  /// How many reads were eligible for a 1-round fast return but took the
  /// 2-round path anyway (also counted under "abd.fast_path_suppressed" in
  /// the metrics registry), and why the most recent one was suppressed.
  /// Zero / kNone for variants without a fast path.
  [[nodiscard]] std::uint64_t fast_path_suppressed() const noexcept {
    return fast_path_suppressed_;
  }
  [[nodiscard]] FastPathSuppression last_suppression() const noexcept {
    return last_suppression_;
  }

  /// Operations issued but not yet completed (stalled ops stay pending).
  [[nodiscard]] std::size_t pending_ops() const noexcept { return pending_ops_; }

  /// Attach (or detach, with nullptr) a metrics registry after construction;
  /// equivalent to ClientOptions::metrics. Not owned; must outlive the
  /// client's use.
  void set_metrics(Metrics* metrics) noexcept { metrics_ = metrics; }

  /// Human-readable dump of pending phases (diagnostics for stalled ops).
  [[nodiscard]] std::string debug_pending() const;

  /// Deterministic digest of the client's protocol state: pending rounds
  /// (kind, ack set, best/install tags, vote counts), per-object writer
  /// sequence numbers, and operation counters. Order-insensitive over the
  /// internal hash maps, so logically equal states hash equally no matter
  /// how they were reached. This is the model checker's state-hash seam
  /// (src/mck); it reads state only and never changes behavior.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  enum class OpKind { kRead, kWriteSwmr, kWriteMwmr };

  struct PendingOp {
    OpKind kind{OpKind::kRead};
    ObjectId object{0};
    Value write_value{};  // MWMR only: parked until tag discovery completes
    OpCallback done;
    TimePoint invoked{};
    std::uint32_t rounds{0};
    std::uint64_t messages_sent{0};
    std::uint64_t retransmissions{0};
  };

  enum class RoundKind { kCollectValues, kCollectTags, kCollectAcks };

  /// One (tag, value) assertion and how many distinct replicas made it.
  struct Candidate {
    Tag tag{kInitialTag};
    Value value{};
    std::size_t votes{0};
  };

  struct Round {
    RoundKind kind{RoundKind::kCollectValues};
    std::shared_ptr<PendingOp> op;
    std::vector<bool> acked;
    Tag best_tag{kInitialTag};
    Value best_value{};
    /// Counted replies so far, and whether they all carried one tag (drives
    /// the fast-path read).
    std::size_t replies{0};
    bool unanimous{true};
    /// How many counted replies carried the current best_tag (the kImbs
    /// witness count). Reset when a newer tag takes over, so it never mixes
    /// votes for different tags.
    std::size_t best_votes{0};
    /// Byzantine mode only: vote counts per distinct (tag, value).
    std::vector<Candidate> candidates;
    /// For kCollectAcks: the (tag, value) pair being installed, delivered to
    /// the callback on completion.
    Tag install_tag{kInitialTag};
    Value install_value{};
    /// The request this phase solicits answers with (kept for resends).
    PayloadPtr request;
    TimerId retransmit_timer{0};
    /// When this phase began (drives the per-phase latency timers).
    TimePoint started{};
  };

  [[nodiscard]] RoundId begin_round(RoundKind kind, std::shared_ptr<PendingOp> op);
  /// Initial send of a phase's request, honoring the contact policy, and
  /// arming the retransmission timer if configured.
  void dispatch_request(RoundId id, PayloadPtr payload);
  void resend_unanswered(RoundId id);
  void arm_retransmit(RoundId id);
  [[nodiscard]] const std::vector<ProcessId>& preferred_targets(RoundKind kind);
  void finish(Round& round);

  void on_read_reply(ProcessId from, const ReadReply& reply);
  void on_tag_reply(ProcessId from, const TagReply& reply);
  void on_update_ack(ProcessId from, const UpdateAck& ack);

  /// Record the completed phase's latency into the metrics registry (no-op
  /// without one attached).
  void record_phase(const Round& round) const;

  /// Records a vote and returns the highest-tag candidate vouched by
  /// >= f+1 replicas, if any. Callers must feed it at most one reply per
  /// distinct replica per round (the first-reply-per-round rule): a vote is
  /// trusted because f+1 *distinct* replicas agree, so duplicate replies —
  /// whether from retransmission or a Byzantine repeater — must not reach
  /// here.
  [[nodiscard]] const Candidate* vouch(Round& round, Tag tag, const Value& value) const;
  [[nodiscard]] static bool all_acked(const Round& round);
  /// Masking-mode fallback: every process answered but nothing is vouched
  /// (a moving writer scattered the votes) — restart the collection phase.
  void requery(std::unordered_map<RoundId, Round>::iterator it);

  /// Common accounting when a responder checks in; returns the round if it
  /// just reached its quorum (and removes it from the table).
  [[nodiscard]] bool record_ack(Round& round, ProcessId from) const;
  void start_update_phase(std::shared_ptr<PendingOp> op, Tag tag, Value value);

  // mck-digest: exclude(quorum system is fixed at construction)
  std::shared_ptr<const quorum::QuorumSystem> quorums_;
  ReadMode read_mode_;
  // mck-digest: exclude(construction-time configuration, never mutated)
  ClientOptions options_;
  /// The variant's read-completion decision logic plus (kTimeEfficient) the
  /// committed-tag cache. All sends still flow through dispatch_request.
  ReadStrategy strategy_;
  // mck-digest: exclude(diagnostic counter; never steers protocol decisions)
  std::uint64_t fast_path_suppressed_{0};
  // mck-digest: exclude(diagnostic snapshot read only by tests and operators)
  FastPathSuppression last_suppression_{FastPathSuppression::kNone};
  // mck-digest: exclude(infrastructure pointer, not protocol state)
  Context* ctx_{nullptr};
  RoundId next_round_{1};
  std::unordered_map<RoundId, Round> rounds_;
  std::unordered_map<ObjectId, std::uint64_t> swmr_seq_;
  std::size_t pending_ops_{0};
  // mck-digest: exclude(infrastructure pointer, not protocol state)
  Metrics* metrics_{nullptr};
  /// Cached preferred quorums for targeted contact (computed lazily).
  // mck-digest: exclude(lazy cache derived deterministically from quorums_)
  std::vector<ProcessId> preferred_read_;
  // mck-digest: exclude(lazy cache derived deterministically from quorums_)
  std::vector<ProcessId> preferred_write_;
};

}  // namespace abdkit::abd

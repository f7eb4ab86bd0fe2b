// Unified op-level metrics registry shared by the simulator and the
// threaded runtime.
//
// A Metrics instance is a named bag of counters (monotone uint64) and
// timers (Summary-backed latency series with exact quantiles). Protocol
// clients (abd::Client, abd::BoundedClient) and the KV layer record into
// it when one is attached; benches and the scenario CLI emit it as JSON.
// Because the same recording code runs under sim::World and
// runtime::Cluster, the emitted fields are identical across both
// environments — the per-phase keys are the diagnostic substrate every
// perf experiment reports against.
//
// Thread safety: all methods are safe to call concurrently (the threaded
// runtime records from every mailbox thread). Under the single-threaded
// simulator the mutex is uncontended and costs one atomic pair per record.
//
// Key conventions: dots separate namespaces; timers and histograms carry a
// unit suffix (_us). Every key recorded anywhere in src/, bench/, or
// examples/ MUST appear in the registry below — tools/abdlint's
// metrics-registry pass enforces both directions (unknown keys at record
// sites, stale entries here). `<i>` stands for a decimal index.
//
// ---- metrics key registry (enforced: abdlint metrics-registry) ----
//   abd.fast_path_suppressed        fast-capable read fell back to the
//                                   2-round path (Client::last_suppression)
//   client.messages_sent            protocol requests sent by a client
//   client.messages_resent          requests retransmitted after timeout
//   client.retransmit_rounds        rounds that needed >=1 retransmission
//   client.duplicate_replies        replies discarded as already-counted
//   client.requeries                masking-mode collection restarts
//   client.ops_completed            client ops that reached their callback
//   kv.gets                         KV get operations served
//   kv.puts                         KV put operations served
//   kv.erases                       KV erase operations served
//   kv.get_us                       KV get latency
//   kv.put_us                       KV put latency
//   kv.erase_us                     KV erase latency
//   op.read_us                      ABD read op latency
//   op.write_swmr_us                ABD SWMR write op latency
//   op.write_mwmr_us                ABD MWMR write op latency
//   op.bounded_read_us              bounded-label read op latency
//   op.bounded_write_us             bounded-label write op latency
//   phase.value_collect_us          value-collection quorum phase latency
//   phase.tag_collect_us            tag-collection quorum phase latency
//   phase.ack_collect_us            update-ack quorum phase latency
//   net.accepts                     TCP connections accepted
//   net.connects                    first successful outbound connects
//   net.reconnects                  successful reconnects after a drop
//   net.connect_attempts            outbound connect() attempts
//   net.disconnects                 established connections lost
//   net.frames_in                   protocol frames decoded off sockets
//   net.frames_out                  protocol frames queued for send
//   net.bytes_in                    payload bytes read from sockets
//   net.bytes_out                   payload bytes written to sockets
//   net.read_calls                  read() syscalls issued
//   net.writev_calls                writev() syscalls issued
//   net.writev_iovecs               iovecs submitted across writev calls
//   net.sends_dropped               frames dropped (no route/queue cap)
//   net.faults_dropped              frames dropped by fault injection
//   net.dropped_bytes               queued bytes discarded at disconnect
//   net.frame_decode_errors         malformed frames off the wire
//   net.misrouted_frames            frames addressed to a different node
//   net.accept_errors               accept() failures (incl. EMFILE backoff)
//   net.epoll_waits                 epoll_wait() calls across all reactors
//   net.timer_cascades              timer-wheel entries moved inward a level
//   net.reactor_posts               cross-thread fns posted to reactors
//   net.reactor.<i>.events          fd events dispatched on reactor i (dynamic key)
//   swarm.ops                       operations completed by swarm clients
//   swarm.connects                  swarm client->replica conns established
//   swarm.disconnects               swarm client->replica conns lost
//   swarm.sends_dropped             swarm frames dropped (cap/bad address)
//   swarm.frame_decode_errors       malformed frames on swarm connections
//   swarm.misrouted_frames          frames addressed to another client
//   reconfig.fences_started         admin fences begun
//   reconfig.fences_committed       admin fences committed
//   reconfig.fences_aborted         admin fences aborted
//   reconfig.epoch_stale_replies    replies nacked for a stale epoch
//   reconfig.ops_parked             client ops parked during a fence
//   reconfig.ops_rerouted           parked ops redispatched post-adoption
//   reconfig.membership_changes     soak: membership changes applied
//   reconfig.map_epoch_bumps        soak: shard-map epoch bumps applied
//   reconfig.replicas_killed        soak: replicas crashed by chaos
//   reconfig.partitions             soak: partitions injected by chaos
//   reconfig.chaos_windows          soak: chaos windows opened
//   reconfig.keys_moved             soak: keys migrated across groups
//   reconfig.backfill_pulls         anti-entropy digest pulls issued
//   reconfig.backfill_replies       anti-entropy pull replies received
//   reconfig.transfer_bytes         state bytes moved by backfill/transfer
//   reconfig.ops_queued_at_cutover  peak ops held by Router::stage_map
//   reconfig.histories_checked      soak: per-key histories verified
//   shard.<i>.ops                   ops routed to shard i (dynamic key)
//   shard.<i>.op_us                 op latency on shard i (dynamic key)
// ---- end metrics key registry ----
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "abdkit/common/stats.hpp"
#include "abdkit/common/thread_annotations.hpp"
#include "abdkit/common/types.hpp"

namespace abdkit {

/// Fixed log-bucket latency histogram: half-octave buckets (two per power
/// of two) over microseconds, covering [1us, ~2^32us). Unlike a Summary it
/// stores no samples — record() is one relaxed atomic increment plus a max
/// CAS, so the threaded runtime can record from every mailbox thread with
/// no lock and no allocation. Quantiles come back as the upper bound of the
/// rank's bucket (≤ ~33% relative overestimate by construction, exact at
/// the recorded max).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record_us(std::uint64_t us) noexcept {
    buckets_[bucket_of(us)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t prev = max_us_.load(std::memory_order_relaxed);
    while (us > prev &&
           !max_us_.compare_exchange_weak(prev, us, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t max_us() const noexcept {
    return max_us_.load(std::memory_order_relaxed);
  }
  /// Upper bound of the bucket holding the q-quantile sample (0 if empty);
  /// clamped to max_us() so the tail never overshoots the observed maximum.
  [[nodiscard]] std::uint64_t quantile_us(double q) const noexcept;

  /// Fold `other`'s counts into this histogram.
  void merge(const LatencyHistogram& other) noexcept;
  void reset() noexcept;

  /// Bucket index for a sample: octave = floor(log2 us), split once at its
  /// midpoint. 0 and 1 land in bucket 0; the top bucket absorbs overflow.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t us) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper_us(std::size_t bucket) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> max_us_{0};
};

class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Increment counter `name` by `delta` (creating it at zero first).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Record one sample into timer `name` (creating it empty first).
  void observe(std::string_view name, double sample);

  /// Convenience: record `elapsed` into timer `name` in microseconds —
  /// the unit every latency timer in the codebase uses.
  void observe_us(std::string_view name, Duration elapsed);

  /// Stable handle to histogram `name` (creating it empty first). Hot paths
  /// look the handle up once and then record lock-free; handles stay valid
  /// until reset(). Histogram keys use the same "_us" suffix convention as
  /// timers ("op.read_us", ...).
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name);

  /// Snapshot-free convenience: record one sample into histogram `name`
  /// (one map lookup under the lock; prefer a cached handle in hot loops).
  void record_us(std::string_view name, Duration elapsed);

  /// Current value of a counter (0 if never touched).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Snapshot of a timer's series (empty Summary if never touched).
  [[nodiscard]] Summary timer(std::string_view name) const;

  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> timer_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  /// Fold another registry into this one (same-name counters add,
  /// same-name timers merge their series).
  void merge(const Metrics& other);

  void reset();

  /// One JSON object:
  ///   {"counters":{"name":N,...},
  ///    "timers":{"name":{"count":N,"mean":X,"p50":X,"p99":X,"max":X},...},
  ///    "hists":{"name":{"count":N,"p50":N,"p99":N,"p999":N,"max":N},...}}
  /// Histogram quantiles are integral microseconds (log-bucket upper
  /// bounds). Keys are sorted (std::map iteration), so output is
  /// deterministic.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_ ABDKIT_GUARDED_BY(mutex_);
  std::map<std::string, Summary, std::less<>> timers_ ABDKIT_GUARDED_BY(mutex_);
  // unique_ptr: handles returned by histogram() must survive rehash/insert.
  // Only the map is guarded — the pointed-to histograms are lock-free by
  // design (handles record without re-entering the registry lock).
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms_
      ABDKIT_GUARDED_BY(mutex_);
};

}  // namespace abdkit

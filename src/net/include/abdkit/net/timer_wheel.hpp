// Hierarchical timer wheel — the reactor's deadline structure.
//
// Under pipelined load every quorum phase arms a retransmit timer and
// cancels it when the quorum answers, so add() and cancel() sit on the hot
// path and almost no timer ever fires. The wheel keeps both O(1) and keeps
// each cycle's timer work proportional to the timers still armed:
//
//   * 4 levels x 256 slots, 1 ms tick. Level 0 spans 256 ms, level 1
//     ~65 s, level 2 ~4.6 h, level 3 ~49 days; deadlines beyond the top
//     level clamp into its last-reachable slot and simply cascade again.
//   * Each slot holds (due, id) entries; each armed timer's record knows
//     its entry's (level, slot, index). add() appends to the innermost
//     level that can represent the deadline; cancel() swap-removes the
//     entry at once, so a slot only ever holds armed timers.
//   * advance(now) walks whole ticks, firing level-0 slots and cascading
//     outer-level slots inward when a level wraps. Entries in one tick
//     fire in (due, id) order, matching the old heap's deterministic order.
//     Each entry leaves its slot before its callback runs.
//   * next_due() reads the earliest deadline for the epoll timeout straight
//     from the slots' entries; it is never later than a pending deadline.
//
// Single-threaded: owned and touched only by its reactor's loop thread.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "abdkit/common/transport.hpp"  // TimerId
#include "abdkit/common/types.hpp"

namespace abdkit::net {

class TimerWheel {
 public:
  using Callback = std::function<void()>;

  static constexpr std::uint64_t kTickNs = 1'000'000;  // 1 ms
  static constexpr std::size_t kLevels = 4;
  static constexpr std::size_t kSlotBits = 8;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 256 per level

  /// Arm a timer due at absolute time `due` (the reactor clock). Returns a
  /// monotone id; ids are never reused.
  TimerId add(TimePoint due, Callback cb);

  /// Disarm. Returns true if the timer was still pending (same contract as
  /// the old live-map erase: cancelling a fired/unknown id is a no-op).
  bool cancel(TimerId id);

  /// Fire everything due at or before `now`, in (due, id) order within each
  /// tick. Callbacks may add or cancel timers freely.
  void advance(TimePoint now);

  /// Earliest deadline of any pending timer, or TimePoint::max() when none
  /// are armed. Callers sleep until it and re-advance; it is never later
  /// than a pending deadline.
  [[nodiscard]] TimePoint next_due() const;

  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }

  /// Entries moved inward from an outer level (diagnostics; exported as the
  /// net.timer_cascades counter).
  [[nodiscard]] std::uint64_t cascades() const noexcept { return cascades_; }

 private:
  struct Entry {
    TimePoint due{};
    TimerId id{0};
    /// (due, id): the fire order.
    friend bool operator<(const Entry& a, const Entry& b) noexcept {
      return a.due != b.due ? a.due < b.due : a.id < b.id;
    }
  };
  using Slot = std::vector<Entry>;

  /// An armed timer: its callback and where its entry sits.
  struct Live {
    Callback cb;
    std::size_t level{0};
    std::size_t slot{0};
    std::size_t index{0};
  };

  [[nodiscard]] static std::uint64_t tick_of(TimePoint t) noexcept {
    return static_cast<std::uint64_t>(t.count()) / kTickNs;
  }
  /// Append `entry` to the innermost level that can still reach its
  /// deadline from current_tick_, and record the position in `live`.
  void place(Live& live, Entry entry);
  /// Swap-remove `live`'s entry from its slot.
  void unlink(const Live& live);
  /// Re-place every entry of an outer-level slot one level inward.
  void cascade(std::size_t level, std::size_t slot_index);

  std::vector<Slot> levels_[kLevels]{
      std::vector<Slot>(kSlots), std::vector<Slot>(kSlots),
      std::vector<Slot>(kSlots), std::vector<Slot>(kSlots)};
  std::unordered_map<TimerId, Live> live_;
  /// Entries resident per level; lets advance() stride over regions where
  /// inner levels are empty instead of walking every 1 ms tick of a long
  /// idle gap.
  std::uint64_t level_count_[kLevels]{};
  std::uint64_t current_tick_{0};
  bool started_{false};  ///< current_tick_ is meaningful only after first use
  TimerId next_id_{1};
  std::uint64_t cascades_{0};
};

}  // namespace abdkit::net

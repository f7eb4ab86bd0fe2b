#include "abdkit/net/timer_wheel.hpp"

#include <algorithm>
#include <utility>

namespace abdkit::net {

namespace {

constexpr std::uint64_t kSlotMask = TimerWheel::kSlots - 1;

/// Ticks representable without clamping: the span of the outermost level.
constexpr std::uint64_t kHorizonTicks =
    1ull << (TimerWheel::kLevels * TimerWheel::kSlotBits);

}  // namespace

TimerId TimerWheel::add(TimePoint due, Callback cb) {
  const TimerId id = next_id_++;
  Live& live = live_.emplace(id, Live{std::move(cb)}).first->second;
  place(live, Entry{due, id});
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  unlink(it->second);
  live_.erase(it);
  return true;
}

void TimerWheel::place(Live& live, Entry entry) {
  // Past-due entries land in the current tick's level-0 slot and fire on the
  // next advance; far-future entries clamp to the outermost horizon and
  // cascade again (the entry keeps its true deadline).
  const std::uint64_t due_tick = tick_of(entry.due);
  std::uint64_t target = due_tick <= current_tick_ ? current_tick_ : due_tick;
  if (target - current_tick_ >= kHorizonTicks) {
    target = current_tick_ + kHorizonTicks - 1;
  }
  const std::uint64_t delta = target - current_tick_;
  for (std::size_t level = 0; level < kLevels; ++level) {
    if (delta < (1ull << ((level + 1) * kSlotBits))) {
      live.level = level;
      live.slot = (target >> (level * kSlotBits)) & kSlotMask;
      Slot& slot = levels_[level][live.slot];
      live.index = slot.size();
      slot.push_back(entry);
      ++level_count_[level];
      return;
    }
  }
}

void TimerWheel::unlink(const Live& live) {
  Slot& slot = levels_[live.level][live.slot];
  if (live.index + 1 != slot.size()) {
    slot[live.index] = slot.back();
    live_.at(slot[live.index].id).index = live.index;
  }
  slot.pop_back();
  --level_count_[live.level];
}

void TimerWheel::cascade(std::size_t level, std::size_t slot_index) {
  const Slot entries = std::exchange(levels_[level][slot_index], Slot{});
  level_count_[level] -= entries.size();
  cascades_ += entries.size();
  for (const Entry& entry : entries) place(live_.at(entry.id), entry);
}

void TimerWheel::advance(TimePoint now) {
  const std::uint64_t now_tick = tick_of(now);
  if (!started_) {
    // First use anchors the wheel: ticks before a wheel exists cannot hold
    // entries, so there is nothing to walk up to.
    current_tick_ = now_tick;
    started_ = true;
  }
  for (;;) {
    if (live_.empty()) {
      // Nothing can fire or cascade; jump.
      current_tick_ = std::max(current_tick_, now_tick);
      return;
    }

    // Stride over empty regions: when the inner levels hold nothing, no
    // tick before the next outer-level cascade boundary can fire, so jump
    // straight to that boundary instead of walking every 1 ms tick of the
    // gap.
    std::uint64_t span = 0;
    if (level_count_[0] == 0) {
      span = 1ull << kSlotBits;
      if (level_count_[1] == 0) {
        span = 1ull << (2 * kSlotBits);
        if (level_count_[2] == 0) span = 1ull << (3 * kSlotBits);
      }
    }
    if (span != 0) {
      const std::uint64_t boundary = (current_tick_ & ~(span - 1)) + span;
      current_tick_ = std::min(now_tick, boundary - 1);
    }

    // Fire the current tick's level-0 slot: everything due at or before
    // `now` goes, in (due, id) order; sub-tick-future entries stay. Each
    // entry leaves the slot just before its callback runs, so a callback
    // may cancel a sibling of the same batch (it then never fires). Loop
    // because a callback may arm a new timer that is already due.
    const Slot& slot = levels_[0][current_tick_ & kSlotMask];
    for (;;) {
      std::vector<Entry> fire;
      for (const Entry& entry : slot) {
        if (entry.due <= now) fire.push_back(entry);
      }
      if (fire.empty()) break;
      std::sort(fire.begin(), fire.end());
      for (const Entry& entry : fire) {
        const auto it = live_.find(entry.id);
        if (it == live_.end()) continue;  // cancelled by an earlier callback
        Callback cb = std::move(it->second.cb);
        unlink(it->second);
        live_.erase(it);
        cb();
      }
    }

    if (current_tick_ >= now_tick) return;
    ++current_tick_;
    // Entering a new level-0 lap pulls the next outer slot inward (and so
    // on up the hierarchy when the outer levels wrap too).
    if ((current_tick_ & kSlotMask) == 0) {
      cascade(1, (current_tick_ >> kSlotBits) & kSlotMask);
      if ((current_tick_ & ((1ull << (2 * kSlotBits)) - 1)) == 0) {
        cascade(2, (current_tick_ >> (2 * kSlotBits)) & kSlotMask);
        if ((current_tick_ & ((1ull << (3 * kSlotBits)) - 1)) == 0) {
          cascade(3, (current_tick_ >> (3 * kSlotBits)) & kSlotMask);
        }
      }
    }
  }
}

TimePoint TimerWheel::next_due() const {
  // Per level, the first non-empty slot (in tick order from the level's
  // current position) holds that level's earliest deadlines; outer levels
  // can hold deadlines that precede inner-level ones (an entry cascades
  // inward only when its level wraps), so take the min across all levels
  // rather than stopping at the innermost hit. An outer level's slot at its
  // current position was emptied by the cascade that entered it, so what
  // it holds now is a full lap ahead: scan it last.
  TimePoint best = TimePoint::max();
  for (std::size_t level = 0; level < kLevels; ++level) {
    if (level_count_[level] == 0) continue;
    const std::uint64_t base =
        (current_tick_ >> (level * kSlotBits)) + (level == 0 ? 0 : 1);
    for (std::uint64_t i = 0; i < kSlots; ++i) {
      const Slot& slot = levels_[level][(base + i) & kSlotMask];
      if (slot.empty()) continue;
      for (const Entry& entry : slot) best = std::min(best, entry.due);
      break;  // later slots of this level only hold later deadlines
    }
  }
  return best;
}

}  // namespace abdkit::net

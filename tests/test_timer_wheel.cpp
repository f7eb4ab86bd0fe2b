// Hierarchical timer wheel (net/timer_wheel.hpp) — the reactor's deadline
// structure. The properties the transport relies on:
//
//   1. Fire order within an advance is (due, id) — identical to the old
//      binary heap, so retransmission order (and thus wire traces) cannot
//      change across the rewrite.
//   2. cancel() is eager: a cancelled timer never fires, and its entry
//      leaves its slot at once, so pending() and the slots hold armed
//      timers only.
//   3. Far-future deadlines (beyond the 256-ms level-0 span, and beyond the
//      whole multi-level horizon) still fire exactly once at the right
//      instant, via cascading.
//   4. next_due() is the earliest pending deadline, and TimePoint::max()
//      iff empty — it drives the epoll timeout, so "late" would stall
//      retransmissions.
//   5. Callbacks may re-arm and cancel reentrantly (the retransmit pattern).
//
// The cascade test checks the wheel against a naive sorted-set reference
// across randomized workloads spanning all four levels, and across a
// retransmit-shaped workload: thousands of timers armed 100 ms out, nearly
// all cancelled within a tick or two.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "abdkit/net/timer_wheel.hpp"

namespace abdkit::net {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::seconds;

TimePoint at(std::int64_t ns) { return TimePoint{Duration{ns}}; }

TEST(TimerWheel, EmptyWheelHasNoDeadlineAndAdvanceIsHarmless) {
  TimerWheel wheel;
  EXPECT_EQ(wheel.next_due(), TimePoint::max());
  EXPECT_EQ(wheel.pending(), 0u);
  wheel.advance(at(0));
  wheel.advance(TimePoint{seconds{3600}});  // idle jump: no timers, no walk
  EXPECT_EQ(wheel.next_due(), TimePoint::max());
}

TEST(TimerWheel, FiresInDueThenIdOrderWithinOneAdvance) {
  TimerWheel wheel;
  wheel.advance(at(0));
  std::vector<int> order;
  // Same tick, distinct sub-tick dues; insertion order deliberately shuffled.
  wheel.add(TimePoint{microseconds{300}}, [&] { order.push_back(3); });
  wheel.add(TimePoint{microseconds{100}}, [&] { order.push_back(1); });
  wheel.add(TimePoint{microseconds{200}}, [&] { order.push_back(2); });
  // Equal dues break ties by id (insertion order).
  wheel.add(TimePoint{microseconds{400}}, [&] { order.push_back(4); });
  wheel.add(TimePoint{microseconds{400}}, [&] { order.push_back(5); });
  wheel.advance(TimePoint{milliseconds{1}});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, SubTickFutureEntriesStayUntilTheirInstant) {
  TimerWheel wheel;
  wheel.advance(at(0));
  bool fired = false;
  wheel.add(TimePoint{microseconds{800}}, [&] { fired = true; });
  // Advance within the same tick but before the deadline: must not fire.
  wheel.advance(TimePoint{microseconds{500}});
  EXPECT_FALSE(fired);
  wheel.advance(TimePoint{microseconds{800}});
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, CancelPreventsFiringAndReportsLiveness) {
  TimerWheel wheel;
  wheel.advance(at(0));
  bool fired = false;
  const TimerId id = wheel.add(TimePoint{milliseconds{5}}, [&] { fired = true; });
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_EQ(wheel.pending(), 0u);   // live bookkeeping shrinks immediately
  EXPECT_FALSE(wheel.cancel(id));   // double-cancel is a no-op
  EXPECT_EQ(wheel.next_due(), TimePoint::max());
  wheel.advance(TimePoint{milliseconds{10}});
  EXPECT_FALSE(fired);
  EXPECT_FALSE(wheel.cancel(9999));  // unknown id is a no-op
}

TEST(TimerWheel, PastDueAddFiresOnNextAdvance) {
  TimerWheel wheel;
  wheel.advance(TimePoint{milliseconds{100}});
  bool fired = false;
  wheel.add(TimePoint{milliseconds{3}}, [&] { fired = true; });  // in the past
  EXPECT_LE(wheel.next_due(), TimePoint{milliseconds{100}});
  wheel.advance(TimePoint{milliseconds{100}});
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, TimersArmedBeforeTheFirstAdvanceFireOnTime) {
  // A reactor drains its first posts before its first advance(), and the
  // transport clock counts from construction, so a timer can be armed
  // before the wheel has seen any time. Whatever the clock read then, the
  // timer fires within one tick of its deadline under 1 ms advances.
  for (const Duration offset : {Duration{milliseconds{10}}, Duration{milliseconds{300}},
                                Duration{seconds{70}}}) {
    TimerWheel wheel;
    const TimePoint due{offset + milliseconds{25}};
    TimePoint clock{offset};
    TimePoint fired_at = TimePoint::max();
    wheel.add(due, [&] { fired_at = clock; });
    for (; fired_at == TimePoint::max() && clock < due + seconds{1};
         clock += milliseconds{1}) {
      wheel.advance(clock);
    }
    EXPECT_GE(fired_at, due) << "armed at " << offset.count() << " ns";
    EXPECT_LE(fired_at, due + milliseconds{1}) << "armed at " << offset.count() << " ns";
  }
}

TEST(TimerWheel, FarFutureTimersCascadeAndFireOnce) {
  TimerWheel wheel;
  wheel.advance(at(0));
  // One per level: 50 ms (L0), 10 s (L1), 2 h (L2), 10 days (L3), plus one
  // beyond the whole ~49-day horizon (clamped, must re-cascade).
  struct Probe {
    Duration due;
    int fired = 0;
  };
  std::vector<Probe> probes{{milliseconds{50}, 0},
                            {seconds{10}, 0},
                            {std::chrono::hours{2}, 0},
                            {std::chrono::hours{240}, 0},
                            {std::chrono::hours{24 * 60}, 0}};
  for (auto& p : probes) wheel.add(TimePoint{p.due}, [&p] { ++p.fired; });
  // Advance in coarse jumps; each probe must fire exactly once, never early.
  const Duration step = std::chrono::hours{6};
  for (Duration now{}; now <= std::chrono::hours{24 * 61}; now += step) {
    wheel.advance(TimePoint{now});
    for (const auto& p : probes) {
      EXPECT_EQ(p.fired, now >= p.due ? 1 : 0) << "at " << now.count();
    }
  }
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_GT(wheel.cascades(), 0u);
}

TEST(TimerWheel, NextDueNeverLaterThanAnyPendingDeadline) {
  TimerWheel wheel;
  wheel.advance(at(0));
  std::mt19937_64 rng{7};
  std::map<TimerId, TimePoint> pending;
  Duration now{};
  for (int round = 0; round < 400; ++round) {
    // Mixed horizon: mostly near (L0), some far (L1/L2).
    const std::uint64_t span_ms =
        round % 7 == 0 ? 400'000 : (round % 3 == 0 ? 2'000 : 180);
    const auto delay =
        milliseconds{static_cast<std::int64_t>(rng() % span_ms) + 1};
    const TimePoint due = TimePoint{now} + delay;
    pending.emplace(wheel.add(due, [] {}), due);
    if (!pending.empty() && rng() % 4 == 0) {
      auto victim = std::next(
          pending.begin(), static_cast<std::ptrdiff_t>(rng() % pending.size()));
      EXPECT_TRUE(wheel.cancel(victim->first));
      pending.erase(victim);
    }
    TimePoint earliest = TimePoint::max();
    for (const auto& [id, d] : pending) earliest = std::min(earliest, d);
    EXPECT_LE(wheel.next_due(), earliest);
    now += milliseconds{static_cast<std::int64_t>(rng() % 50)};
    wheel.advance(TimePoint{now});
    for (auto it = pending.begin(); it != pending.end();) {
      it = it->second <= TimePoint{now} ? pending.erase(it) : std::next(it);
    }
    EXPECT_EQ(wheel.pending(), pending.size());
  }
}

TEST(TimerWheel, NextDueLooksPastAnOuterSlotOneLapAhead) {
  // At 511 ms the level-1 slot under the current position has already
  // cascaded; a timer 65.535 s out lands back in it, one lap ahead. An
  // earlier level-1 timer in a later slot must still be the one reported.
  TimerWheel wheel;
  wheel.advance(TimePoint{milliseconds{511}});
  wheel.add(TimePoint{milliseconds{511 + 65'535}}, [] {});
  wheel.add(TimePoint{milliseconds{1'511}}, [] {});
  EXPECT_EQ(wheel.next_due(), TimePoint{milliseconds{1'511}});
}

TEST(TimerWheel, ReentrantCallbacksCanRearmAndCancel) {
  TimerWheel wheel;
  wheel.advance(at(0));
  // A retransmit-style chain: each firing re-arms itself further out.
  int chain = 0;
  std::function<void()> rearm = [&] {
    if (++chain < 5) {
      wheel.add(TimePoint{milliseconds{10 * (chain + 1)}}, rearm);
    }
  };
  wheel.add(TimePoint{milliseconds{10}}, rearm);
  // A callback that cancels a sibling due in the same batch: the sibling
  // must not fire (ack-cancels-retransmit within one poll cycle).
  bool sibling_fired = false;
  TimerId sibling = 0;
  wheel.add(TimePoint{microseconds{100}},
            [&] { EXPECT_TRUE(wheel.cancel(sibling)); });
  sibling = wheel.add(TimePoint{microseconds{200}},
                      [&] { sibling_fired = true; });
  // A callback that arms a timer already due: it fires within this advance,
  // matching the old heap's while-top-due loop.
  bool immediate_fired = false;
  wheel.add(TimePoint{microseconds{300}}, [&] {
    wheel.add(TimePoint{microseconds{50}}, [&] { immediate_fired = true; });
  });
  wheel.advance(TimePoint{milliseconds{1}});
  EXPECT_FALSE(sibling_fired);
  EXPECT_TRUE(immediate_fired);
  for (int step = 2; step <= 10; ++step) {
    wheel.advance(TimePoint{milliseconds{10 * step}});
  }
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(wheel.pending(), 0u);
}

// A wheel driven in lockstep with a naive reference: a sorted set fired with
// the same (due, id) tie-break. Both sides fire in (due, id) order with
// monotone ids assigned in the same insertion order, so comparing the fired
// (due, id) sequences checks order, timing, and exactly-once delivery at
// once.
class Lockstep {
 public:
  using Key = std::pair<std::int64_t, TimerId>;  // (due ns, id)

  Lockstep() { wheel_.advance(at(0)); }
  Lockstep(const Lockstep&) = delete;
  Lockstep& operator=(const Lockstep&) = delete;

  /// Arm a strictly-future timer on both sides.
  Key add(TimePoint due) {
    // The wheel hands out the id before the callback can fire (the due is
    // strictly future), so capturing through a stable box is safe.
    auto id_box = std::make_shared<TimerId>(0);
    *id_box = wheel_.add(due, [this, due, id_box] {
      wheel_fired_.emplace_back(due.count(), *id_box);
    });
    const Key key{due.count(), *id_box};
    ref_.insert(key);
    return key;
  }

  /// Cancel on both sides; both must agree the timer was still pending.
  bool cancel(Key key) {
    const bool pending = ref_.erase(key) > 0;
    EXPECT_EQ(wheel_.cancel(key.second), pending);
    return pending;
  }

  void advance(Duration now) {
    wheel_.advance(TimePoint{now});
    while (!ref_.empty() && ref_.begin()->first <= now.count()) {
      ref_fired_.push_back(*ref_.begin());
      ref_.erase(ref_.begin());
    }
  }

  /// The wheel matches the reference on everything fired so far, on the
  /// pending count, and on the earliest pending deadline.
  [[nodiscard]] ::testing::AssertionResult agrees() const {
    if (wheel_fired_ != ref_fired_) {
      return ::testing::AssertionFailure()
             << "fired sequences differ (" << wheel_fired_.size() << " vs "
             << ref_fired_.size() << " fired)";
    }
    if (wheel_.pending() != ref_.size()) {
      return ::testing::AssertionFailure()
             << "pending " << wheel_.pending() << " vs " << ref_.size();
    }
    const TimePoint earliest =
        ref_.empty() ? TimePoint::max() : TimePoint{Duration{ref_.begin()->first}};
    if (wheel_.next_due() != earliest) {
      return ::testing::AssertionFailure() << "next_due " << wheel_.next_due().count()
                                           << " ns vs earliest " << earliest.count()
                                           << " ns";
    }
    return ::testing::AssertionSuccess();
  }

  [[nodiscard]] const std::set<Key>& pending() const { return ref_; }
  [[nodiscard]] std::size_t fired() const { return ref_fired_.size(); }

 private:
  TimerWheel wheel_;
  std::vector<Key> wheel_fired_;
  std::vector<Key> ref_fired_;
  std::set<Key> ref_;  // pending
};

// Randomized differential test against the reference. The first inputs span
// all four levels so every cascade path is exercised; advances use
// irregular steps so level boundaries are crossed mid-slot and in bulk. The
// last input is shaped like retransmits.
TEST(TimerWheel, CascadeCorrectnessMatchesNaiveReferenceAcrossLevels) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    std::mt19937_64 rng{seed};
    Lockstep run;
    Duration now{};
    for (int round = 0; round < 300; ++round) {
      const int adds = 1 + static_cast<int>(rng() % 4);
      for (int a = 0; a < adds; ++a) {
        // Horizon mix: L0 (≤256 ms), L1 (≤65 s), L2 (≤4.6 h), L3 (days).
        static constexpr std::uint64_t kSpanUs[] = {
            250'000, 60'000'000, 16'000'000'000, 900'000'000'000};
        const std::uint64_t span = kSpanUs[rng() % 4];
        const auto delay = microseconds{static_cast<std::int64_t>(rng() % span) + 1};
        run.add(TimePoint{now} + delay);
      }
      // Occasionally cancel a random pending timer on both sides.
      const auto& pending = run.pending();
      if (!pending.empty() && rng() % 3 == 0) {
        const auto skip = static_cast<std::ptrdiff_t>(rng() % pending.size());
        EXPECT_TRUE(run.cancel(*std::next(pending.begin(), skip)));
      }
      // Irregular advance: usually small, sometimes a level-crossing leap.
      const std::uint64_t leap = rng() % 20;
      Duration step = milliseconds{static_cast<std::int64_t>(rng() % 40)};
      if (leap == 0) step = seconds{static_cast<std::int64_t>(rng() % 90)};
      if (leap == 1) step = std::chrono::hours{1 + static_cast<std::int64_t>(rng() % 5)};
      now += step;
      run.advance(now);
      ASSERT_TRUE(run.agrees()) << "seed " << seed << " round " << round;
    }
  }

  // Retransmit-shaped input: every quorum phase arms a timer 100 ms out and
  // cancels it when the quorum answers, within a tick or two; one phase in
  // 200 never hears back and its timer fires. The wheel advances in
  // sub-millisecond steps, once per reactor cycle.
  std::mt19937_64 rng{4};
  Lockstep run;
  std::multimap<Duration, Lockstep::Key> answers;  // answer time -> timer
  std::size_t armed = 0;
  std::size_t cancelled = 0;
  Duration now{};
  for (int cycle = 0; cycle < 5000; ++cycle) {
    const int phases = static_cast<int>(rng() % 3);
    for (int p = 0; p < phases; ++p) {
      const Lockstep::Key key = run.add(TimePoint{now + milliseconds{100}});
      ++armed;
      if (rng() % 200 != 0) {
        const auto delay = microseconds{static_cast<std::int64_t>(rng() % 2000)};
        answers.emplace(now + delay, key);
      }
    }
    while (!answers.empty() && answers.begin()->first <= now) {
      EXPECT_TRUE(run.cancel(answers.begin()->second));
      ++cancelled;
      answers.erase(answers.begin());
    }
    now += microseconds{static_cast<std::int64_t>(rng() % 400)};
    run.advance(now);
    ASSERT_TRUE(run.agrees()) << "retransmit cycle " << cycle;
  }
  for (const auto& [when, key] : answers) {
    EXPECT_TRUE(run.cancel(key));
    ++cancelled;
  }
  run.advance(now + milliseconds{200});
  ASSERT_TRUE(run.agrees());
  EXPECT_TRUE(run.pending().empty());
  EXPECT_GE(armed, 4000u);
  EXPECT_GE(cancelled * 100, armed * 99);
  EXPECT_GT(run.fired(), 0u);
  EXPECT_EQ(run.fired() + cancelled, armed);
}

}  // namespace
}  // namespace abdkit::net

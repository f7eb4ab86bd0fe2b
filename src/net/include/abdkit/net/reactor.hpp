// Edge-triggered epoll reactor — one per event-loop thread.
//
// The old transport loop rebuilt a pollfd vector from every peer and inbound
// connection each cycle and linearly rescanned all of them after poll(2)
// returned: O(connections) per cycle even when one fd was ready. The
// reactor keeps a persistent epoll interest list instead (epoll_ctl once per
// connection lifetime) and dispatches only the ready set, so a cycle costs
// O(ready), the property that makes thousands of mostly-idle client
// connections affordable.
//
// Discipline (see DESIGN.md "Epoll multi-reactor"):
//
//   * Edge-triggered. Registration is EPOLLIN|EPOLLOUT|EPOLLET once;
//     handlers must drain until EAGAIN (reads) or track a write-blocked
//     flag cleared on the next EPOLLOUT edge (writes). No epoll_ctl on the
//     hot path.
//   * Slots, not fds, in epoll_event.data: each registered fd owns a slot
//     in a free-listed table (O(closed) bookkeeping, not O(total) — the
//     free list replaces the old per-cycle erase_if compaction). A
//     generation counter rides along so an event queued for a closed slot
//     can never misdispatch onto a recycled one; remove() additionally
//     defers slot reuse to the end of the dispatch batch.
//   * Timers live in the reactor's TimerWheel; the epoll timeout comes from
//     TimerWheel::next_due(), which reads the earliest armed deadline from
//     the wheel's slots (never later than it, so deadlines are never slept
//     past). Cancelled timers leave the wheel at once, so this per-cycle
//     read costs the timers still armed, not the ones recently cancelled.
//   * post() is the only cross-thread entry: an MPSC queue (mutex +
//     eventfd wakeup) drained at the top of every cycle. Everything else is
//     loop-thread-only by construction.
//
// The reactor is mechanism only: it knows fds, timers, and posts. Protocol
// policy (peers, frames, accept sharding) lives in net::Transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "abdkit/common/thread_annotations.hpp"
#include "abdkit/common/types.hpp"
#include "abdkit/net/timer_wheel.hpp"

namespace abdkit::net {

class Reactor {
 public:
  /// Receives the ready epoll event mask (EPOLLIN/EPOLLOUT/EPOLLERR/...).
  using EventHandler = std::function<void(std::uint32_t events)>;

  /// `clock` supplies the loop's TimePoint (the transport's shared epoch);
  /// called once per cycle. Throws std::runtime_error if epoll/eventfd
  /// creation fails.
  explicit Reactor(std::function<TimePoint()> clock);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // ---- loop-thread API ------------------------------------------------

  /// Register `fd` edge-triggered (EPOLLIN|EPOLLOUT|EPOLLET|EPOLLRDHUP) and
  /// return its slot. The handler runs on the loop thread for every ready
  /// edge. Level-triggered registration (listening sockets, eventfds) is
  /// available via `edge_triggered = false`.
  std::uint32_t add_fd(int fd, EventHandler handler, bool edge_triggered = true);

  /// Deregister the slot's fd from epoll and tombstone its handler. The
  /// slot id is recycled only after the current dispatch batch completes,
  /// so events already harvested for it are dropped, never misdispatched.
  /// The caller still owns (and closes) the fd.
  void remove(std::uint32_t slot);

  [[nodiscard]] TimerWheel& timers() noexcept { return wheel_; }
  [[nodiscard]] TimePoint now() const { return clock_(); }

  /// Hook run every cycle after timers fire and posts drain, immediately
  /// before the epoll timeout is computed — the flush point (writev
  /// coalescing, cross-reactor batch handoff) of the old loop's
  /// flush_dirty_peers.
  void set_before_wait(std::function<void()> hook) { before_wait_ = std::move(hook); }

  /// Run the loop on the calling thread until stop(). Cycles: drain posts →
  /// advance timers → before_wait hook → epoll_wait(next_due) → dispatch →
  /// recycle removed slots.
  void run();

  // ---- any-thread API -------------------------------------------------

  /// Queue `fn` for the loop thread and wake it. The MPSC queue preserves
  /// per-producer FIFO order (it is the cross-reactor frame-ordering
  /// guarantee). Safe before run() and after stop(); posts after stop()
  /// are dropped on the floor when the reactor is destroyed.
  void post(std::function<void()> fn);

  /// Ask the loop to exit after the current cycle; wakes it if blocked.
  void stop();

  // ---- diagnostics (loop-thread reads exact values; cross-thread reads
  //      are snapshots, exact once the loop has exited) ------------------

  struct Stats {
    std::uint64_t epoll_waits{0};    ///< epoll_wait syscalls issued
    std::uint64_t events{0};         ///< handler dispatches
    std::uint64_t posts{0};          ///< cross-thread posts drained
    std::uint64_t timer_cascades{0}; ///< TimerWheel::cascades()
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Registered, non-tombstoned slots (testing: free-list recycling).
  [[nodiscard]] std::size_t active_slots() const noexcept { return active_slots_; }
  /// High-water slot-table size (testing: churn must not grow the table).
  [[nodiscard]] std::size_t slot_table_size() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    int fd{-1};
    std::uint32_t generation{0};
    EventHandler handler;  ///< empty = tombstoned / free
  };

  void drain_posted();
  void wake();

  std::function<TimePoint()> clock_;
  int epoll_fd_{-1};
  int wake_fd_{-1};  ///< eventfd; registered level-triggered at slot 0
  TimerWheel wheel_;
  std::function<void()> before_wait_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Slots removed during the current cycle; recycled at its end.
  std::vector<std::uint32_t> graveyard_;
  std::size_t active_slots_{0};

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> epoll_waits_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> posts_{0};

  Mutex post_mutex_;
  std::deque<std::function<void()>> posted_ ABDKIT_GUARDED_BY(post_mutex_);
};

}  // namespace abdkit::net

// The discrete-event simulator.
//
// Single-threaded, deterministic: events fire in (time, insertion-sequence)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. All Dodo daemons and applications execute as detached
// Co<void> coroutines on this loop.
//
// The event heap holds trivially copyable (time, sequence, payload) records
// of three kinds: a coroutine resume carrying only its handle, a generic
// callback parked in a slab of std::function slots, and a cancellable timer
// parked in a slab of timer slots. The steady-state hot path (resumes,
// timeouts, small callbacks) therefore allocates nothing once the heap and
// the slabs have grown to the run's peak.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/task.hpp"

namespace dodo::sim {

class Simulator {
 public:
  /// Names one armed timeout (see schedule_timeout). `gen` is the timer
  /// event's insertion sequence number, unique for the simulator's life, so
  /// a token whose timer already fired or was cancelled never matches the
  /// next timer parked in the same slot. A default token names no timer.
  struct TimerToken {
    static constexpr std::uint32_t kNone = UINT32_MAX;

    std::uint32_t slot = kNone;
    std::uint64_t gen = 0;

    [[nodiscard]] bool valid() const { return slot != kNone; }
  };

  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedules an arbitrary callback at absolute time `t` (clamped to now).
  void schedule(SimTime t, std::function<void()> fn);

  /// Schedules a coroutine resume at absolute time `t` (clamped to now).
  void schedule_resume(SimTime t, std::coroutine_handle<> h);

  /// Schedules a resume of `h` at absolute time `t` (clamped to now) that
  /// cancel_timeout() can disarm before it fires. A disarmed timer's event
  /// still pops at `t` and counts in events_processed(); it just resumes
  /// nothing.
  TimerToken schedule_timeout(SimTime t, std::coroutine_handle<> h);

  /// Disarms the timer `tok` names. Returns false, and changes nothing, if
  /// that timer already fired or was cancelled (or `tok` names no timer).
  bool cancel_timeout(TimerToken tok);

  /// Detaches a task onto the loop; its body starts at the current time.
  /// Exceptions escaping a detached task abort the simulation (fail fast).
  void spawn(Co<void> task);

  /// Awaitable: suspends the calling coroutine for `d` simulated time.
  [[nodiscard]] auto sleep(Duration d) {
    return SleepAwaiter{*this, now_ + (d > 0 ? d : 0)};
  }

  /// Awaitable: suspends the calling coroutine until absolute time `t`.
  [[nodiscard]] auto sleep_until(SimTime t) {
    return SleepAwaiter{*this, t > now_ ? t : now_};
  }

  /// Runs until the event queue drains, a stop is requested, or the
  /// simulated-time limit is hit. Returns the simulated time at exit.
  SimTime run(SimTime limit = INT64_MAX);

  /// Makes run() return after the event currently being processed.
  void request_stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of events processed so far (for budget checks in tests).
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Hard cap on total events processed; run() returns once it is reached.
  /// Guards generative (fuzz) runs against schedules that livelock at a
  /// constant sim time, where a time limit alone would never fire. 0 = off.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  [[nodiscard]] bool event_limit_hit() const {
    return event_limit_ != 0 && events_processed_ >= event_limit_;
  }

  /// Destroys all still-suspended detached tasks immediately. Call this
  /// before tearing down objects (networks, filesystems) that suspended
  /// coroutine frames may reference from their local variables; must not be
  /// called while run() is executing.
  void destroy_detached();

 private:
  struct SleepAwaiter {
    Simulator& sim;
    SimTime wake_at;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim.schedule_resume(wake_at, h);
    }
    void await_resume() const noexcept {}
  };

  enum Kind : std::uint64_t { kResume = 0, kCallback = 1, kTimer = 2 };
  static constexpr unsigned kKindBits = 2;

  union Payload {
    void* frame;         // kResume: coroutine_handle<>::address()
    std::uint32_t slot;  // kCallback: callbacks_ index; kTimer: timers_
  };

  /// One heap entry. `key` is (insertion sequence << kKindBits) | kind;
  /// sequences are unique, so ordering by (time, key) is exactly the
  /// (time, sequence) order.
  struct Event {
    SimTime time;
    std::uint64_t key;
    Payload payload;
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };

  struct TimerSlot {
    std::coroutine_handle<> handle;  // null once fired or cancelled
    std::uint64_t gen = 0;
  };

  /// Queues an event at max(t, now); returns its insertion sequence.
  std::uint64_t push(SimTime t, Kind kind, Payload payload);
  void dispatch(const Event& ev);
  void reap_finished_tasks();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool stop_requested_ = false;
  Rng rng_;
  std::vector<Event> heap_;  // binary min-heap under Later
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;
  std::vector<TimerSlot> timers_;
  std::vector<std::uint32_t> free_timers_;
  std::vector<std::coroutine_handle<Co<void>::promise_type>> detached_;
};

}  // namespace dodo::sim

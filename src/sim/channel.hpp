// Awaitable message channels.
//
// A Channel<T> is an unbounded MPSC/MPMC queue on the simulated loop. send()
// never blocks; recv() suspends the receiving coroutine until a value is
// available; recv_for() additionally wakes with std::nullopt after a timeout.
//
// Implementation note on timeouts: a pending recv_for() parks a cancellable
// timer on the simulator (Simulator::schedule_timeout) and leaves a waiter
// holding the timer's token in the channel. send() hands its value to the
// first waiter whose timer it can still cancel; a waiter whose timer already
// fired is a corpse (its coroutine resumed with std::nullopt and moved on)
// and is skipped. A plain recv() waiter has no timer and is always live.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace dodo::sim {

namespace detail {

/// FIFO over a vector plus a head index. Allocates nothing until the first
/// push, and reuses its storage across bursts: popping the last element
/// rewinds to the front, and the consumed prefix is compacted away once it
/// is at least half the storage, so each element moves O(1) times.
template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }

  void push(T v) { items_.push_back(std::move(v)); }

  T pop() {
    T v = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace detail

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(&sim) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a value; wakes one pending receiver if any (at current time).
  void send(T value) {
    while (!waiters_.empty()) {
      const Waiter w = waiters_.pop();
      // A timer that can no longer be cancelled already fired: skip the
      // corpse.
      if (w.timer.valid() && !sim_->cancel_timeout(w.timer)) continue;
      *w.slot = std::move(value);
      sim_->schedule_resume(sim_->now(), w.handle);
      return;
    }
    items_.push(std::move(value));
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t pending_receivers() const {
    return waiters_.size();
  }

  /// Awaitable receive; resumes with the next value.
  [[nodiscard]] auto recv() { return RecvAwaiter{*this}; }

  /// Awaitable receive with timeout; resumes with std::nullopt on timeout.
  [[nodiscard]] auto recv_for(Duration timeout) {
    return RecvForAwaiter{*this, timeout};
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    return items_.pop();
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
    Simulator::TimerToken timer;  // invalid for a plain recv()
  };

  struct RecvAwaiter {
    Channel& ch;
    std::optional<T> slot{};

    bool await_ready() {
      if (ch.items_.empty()) return false;
      slot = ch.items_.pop();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch.waiters_.push(Waiter{h, &slot, {}});
    }
    T await_resume() { return std::move(*slot); }
  };

  struct RecvForAwaiter {
    Channel& ch;
    Duration timeout;
    std::optional<T> slot{};

    bool await_ready() {
      if (ch.items_.empty()) return false;
      slot = ch.items_.pop();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      const auto timer =
          ch.sim_->schedule_timeout(ch.sim_->now() + timeout, h);
      ch.waiters_.push(Waiter{h, &slot, timer});
    }
    std::optional<T> await_resume() { return std::move(slot); }
  };

  Simulator* sim_;
  detail::Fifo<T> items_;
  detail::Fifo<Waiter> waiters_;
};

/// Counts outstanding work; wait() suspends until the count reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : sim_(&sim) {}

  void add(int n = 1) { count_ += n; }

  void done() {
    if (--count_ == 0) {
      for (auto h : waiters_) sim_->schedule_resume(sim_->now(), h);
      waiters_.clear();
    }
  }

  [[nodiscard]] int count() const { return count_; }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      WaitGroup& wg;
      bool await_ready() const { return wg.count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        wg.waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

 private:
  Simulator* sim_;
  int count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace dodo::sim

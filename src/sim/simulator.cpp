#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

namespace dodo::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() { destroy_detached(); }

void Simulator::destroy_detached() {
  for (auto h : detached_) {
    if (h) h.destroy();
  }
  detached_.clear();
}

namespace {

/// Takes a free slot index from `free`, or appends a fresh slot to `slots`.
template <typename Slot>
std::uint32_t claim_slot(std::vector<Slot>& slots,
                         std::vector<std::uint32_t>& free) {
  if (free.empty()) {
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
  }
  const std::uint32_t i = free.back();
  free.pop_back();
  return i;
}

}  // namespace

std::uint64_t Simulator::push(SimTime t, Kind kind, Payload payload) {
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Event{t < now_ ? now_ : t, (seq << kKindBits) | kind,
                        payload});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return seq;
}

void Simulator::schedule(SimTime t, std::function<void()> fn) {
  const std::uint32_t i = claim_slot(callbacks_, free_callbacks_);
  callbacks_[i] = std::move(fn);
  push(t, kCallback, Payload{.slot = i});
}

void Simulator::schedule_resume(SimTime t, std::coroutine_handle<> h) {
  push(t, kResume, Payload{.frame = h.address()});
}

Simulator::TimerToken Simulator::schedule_timeout(SimTime t,
                                                  std::coroutine_handle<> h) {
  const std::uint32_t i = claim_slot(timers_, free_timers_);
  const std::uint64_t gen = push(t, kTimer, Payload{.slot = i});
  timers_[i] = TimerSlot{h, gen};
  return TimerToken{i, gen};
}

bool Simulator::cancel_timeout(TimerToken tok) {
  if (!tok.valid()) return false;
  TimerSlot& s = timers_[tok.slot];
  if (s.gen != tok.gen || !s.handle) return false;
  s.handle = nullptr;
  return true;
}

void Simulator::spawn(Co<void> task) {
  auto h = task.release();
  if (!h) return;
  detached_.push_back(h);
  schedule_resume(now_, h);
}

void Simulator::dispatch(const Event& ev) {
  switch (static_cast<Kind>(ev.key & ((1u << kKindBits) - 1))) {
    case kResume:
      std::coroutine_handle<>::from_address(ev.payload.frame).resume();
      return;
    case kCallback: {
      // Moved out and its slot freed first: the callback may schedule more,
      // which can reuse the slot or grow (and so move) the slab.
      const std::uint32_t i = ev.payload.slot;
      std::function<void()> fn = std::move(callbacks_[i]);
      free_callbacks_.push_back(i);
      fn();
      return;
    }
    case kTimer: {
      // The slot stays claimed until its event pops, so a token can only
      // disarm the timer it was issued for (see cancel_timeout).
      const std::uint32_t i = ev.payload.slot;
      const std::coroutine_handle<> h = std::exchange(timers_[i].handle,
                                                      nullptr);
      free_timers_.push_back(i);
      if (h) h.resume();
      return;
    }
  }
}

void Simulator::reap_finished_tasks() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < detached_.size(); ++i) {
    auto h = detached_[i];
    if (h.promise().finished) {
      if (h.promise().exception) {
        // A detached daemon died with an exception: that is a bug in the
        // model, never a recoverable condition. Fail loudly.
        try {
          std::rethrow_exception(h.promise().exception);
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "dodo::sim: detached task terminated with exception: "
                       "%s\n",
                       e.what());
        } catch (...) {
          std::fprintf(stderr,
                       "dodo::sim: detached task terminated with unknown "
                       "exception\n");
        }
        std::abort();
      }
      h.destroy();
    } else {
      detached_[out++] = h;
    }
  }
  detached_.resize(out);
}

SimTime Simulator::run(SimTime limit) {
  stop_requested_ = false;
  while (!heap_.empty() && !stop_requested_ && !event_limit_hit()) {
    // Copied out (24 trivially copyable bytes) before the pop, so the
    // handler may schedule new events that grow the heap.
    const Event ev = heap_.front();
    if (ev.time > limit) {
      now_ = limit;
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    now_ = ev.time;
    dispatch(ev);
    ++events_processed_;
    if ((events_processed_ & 0x3ff) == 0) reap_finished_tasks();
  }
  reap_finished_tasks();
  return now_;
}

}  // namespace dodo::sim

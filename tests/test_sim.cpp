// Tests for the discrete-event simulator: event ordering, coroutine tasks,
// channels, timeouts, wait groups, and the event loop's allocation-free
// steady state.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/units.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dodo::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30_ms, [&] { order.push_back(3); });
  sim.schedule(10_ms, [&] { order.push_back(1); });
  sim.schedule(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ms);
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RunRespectsTimeLimit) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10_ms, [&] { ++fired; });
  sim.schedule(100_ms, [&] { ++fired; });
  sim.run(50_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50_ms);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(10_ms, [&] {
    sim.schedule(1_ms, [&] { seen = sim.now(); });  // in the "past"
  });
  sim.run();
  EXPECT_EQ(seen, 10_ms);
}

Co<void> sleeper(Simulator& sim, std::vector<SimTime>& log) {
  log.push_back(sim.now());
  co_await sim.sleep(5_ms);
  log.push_back(sim.now());
  co_await sim.sleep(7_ms);
  log.push_back(sim.now());
}

TEST(Task, SleepAdvancesSimTime) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(sleeper(sim, log));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(log[1], 5_ms);
  EXPECT_EQ(log[2], 12_ms);
}

Co<int> answer(Simulator& sim) {
  co_await sim.sleep(1_ms);
  co_return 42;
}

Co<void> asker(Simulator& sim, int& out) {
  out = co_await answer(sim);
}

TEST(Task, ValueReturningSubtask) {
  Simulator sim;
  int out = 0;
  sim.spawn(asker(sim, out));
  sim.run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(sim.now(), 1_ms);
}

Co<int> deep(Simulator& sim, int depth) {
  if (depth == 0) co_return 1;
  co_await sim.sleep(1_us);
  const int below = co_await deep(sim, depth - 1);
  co_return below + 1;
}

TEST(Task, DeeplyNestedAwaitChains) {
  Simulator sim;
  int out = 0;
  sim.spawn([](Simulator& s, int& o) -> Co<void> {
    o = co_await deep(s, 200);
  }(sim, out));
  sim.run();
  EXPECT_EQ(out, 201);
}

Co<void> producer(Simulator& sim, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim.sleep(1_ms);
    ch.send(i);
  }
}

Co<void> consumer(Channel<int>& ch, int n, std::vector<int>& got) {
  for (int i = 0; i < n; ++i) {
    got.push_back(co_await ch.recv());
  }
}

TEST(Channel, DeliversInOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn(consumer(ch, 5, got));
  sim.spawn(producer(sim, ch, 5));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, BufferedValuesReceivedWithoutSuspending) {
  Simulator sim;
  Channel<std::string> ch(sim);
  ch.send("a");
  ch.send("b");
  std::vector<std::string> got;
  sim.spawn([](Channel<std::string>& c, std::vector<std::string>& g) -> Co<void> {
    g.push_back(co_await c.recv());
    g.push_back(co_await c.recv());
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

TEST(Channel, RecvForTimesOut) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got = 123;
  sim.spawn([](Simulator&, Channel<int>& c, std::optional<int>& g) -> Co<void> {
    g = co_await c.recv_for(10_ms);
  }(sim, ch, got));
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(Channel, RecvForValueBeatsTimeout) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got;
  SimTime when = -1;
  sim.spawn([](Simulator& s, Channel<int>& c, std::optional<int>& g,
               SimTime& w) -> Co<void> {
    g = co_await c.recv_for(10_ms);
    w = s.now();
  }(sim, ch, got, when));
  sim.schedule(3_ms, [&] { ch.send(7); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(when, 3_ms);
  // The dead timer event must not resume the coroutine again.
  EXPECT_GE(sim.now(), 10_ms);
}

TEST(Channel, LateSendSkipsTimedOutWaiter) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> first, second;
  sim.spawn([](Channel<int>& c, std::optional<int>& g) -> Co<void> {
    g = co_await c.recv_for(5_ms);
  }(ch, first));
  sim.spawn([](Channel<int>& c, std::optional<int>& g) -> Co<void> {
    g = co_await c.recv_for(50_ms);
  }(ch, second));
  sim.schedule(20_ms, [&] { ch.send(9); });
  sim.run();
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 9);
}

TEST(Channel, TryRecvDoesNotBlock) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(5);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(WaitGroup, WaitsForAllChildren) {
  Simulator sim;
  WaitGroup wg(sim);
  SimTime finished_at = -1;
  for (int i = 1; i <= 3; ++i) {
    wg.add();
    sim.spawn([](Simulator& s, WaitGroup& w, int ms) -> Co<void> {
      co_await s.sleep(millis(ms));
      w.done();
    }(sim, wg, i * 10));
  }
  sim.spawn([](Simulator& s, WaitGroup& w, SimTime& t) -> Co<void> {
    co_await w.wait();
    t = s.now();
  }(sim, wg, finished_at));
  sim.run();
  EXPECT_EQ(finished_at, 30_ms);
}

TEST(Simulator, StopRequestHaltsLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_ms, [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule(2_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> draws;
    sim.spawn([](Simulator& s, std::vector<std::uint64_t>& d) -> Co<void> {
      for (int i = 0; i < 10; ++i) {
        co_await s.sleep(millis(static_cast<double>(s.rng().below(5)) + 1));
        d.push_back(s.rng().next());
      }
    }(sim, draws));
    sim.run();
    return std::pair{draws, sim.now()};
  };
  auto [a1, t1] = run_once(99);
  auto [a2, t2] = run_once(99);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(t1, t2);
  auto [b1, tb] = run_once(100);
  EXPECT_NE(a1, b1);
}

// --------------------------------------------------------------------------
// Event-loop semantics the heap representation must preserve
// --------------------------------------------------------------------------

TEST(Simulator, ResumeCallbackAndTimerAtOneInstantFireInScheduleOrder) {
  // The three event kinds (coroutine resume, generic callback, timeout) all
  // target t = 10 ms; whatever order they were scheduled in is the order
  // they fire in. Every permutation is checked.
  std::vector<std::string> kinds = {"callback", "resume", "timer"};
  do {
    Simulator sim;
    Channel<int> ch(sim);
    std::vector<std::string> fired;
    // Each kind schedules its 10 ms event from a t = 0 event of its own, so
    // the t = 0 events (run in spawn/schedule order) fix the sequence.
    for (const auto& kind : kinds) {
      if (kind == "resume") {
        sim.spawn([](Simulator& s, std::vector<std::string>& f) -> Co<void> {
          co_await s.sleep_until(10_ms);
          f.push_back("resume");
        }(sim, fired));
      } else if (kind == "callback") {
        sim.schedule(0, [&sim, &fired] {
          sim.schedule(10_ms, [&fired] { fired.push_back("callback"); });
        });
      } else {
        sim.spawn([](Channel<int>& c, std::vector<std::string>& f) -> Co<void> {
          const auto v = co_await c.recv_for(10_ms);
          if (!v) f.push_back("timer");
        }(ch, fired));
      }
    }
    sim.run();
    EXPECT_EQ(fired, kinds);
    EXPECT_EQ(sim.now(), 10_ms);
  } while (std::next_permutation(kinds.begin(), kinds.end()));
}

TEST(Channel, RewaitAfterTimeoutReusesTimerAndGetsLaterSend) {
  // A's first recv_for times out at 5 ms and leaves its waiter behind as a
  // corpse; A at once waits again on the same channel, whose timer takes
  // the slot the first timer just released. The send at 20 ms must skip the
  // corpse (its stale token must not disarm the reused slot) and reach the
  // live wait.
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> first = 1;
  std::optional<int> second;
  SimTime second_at = -1;
  sim.spawn([](Simulator& s, Channel<int>& c, std::optional<int>& f,
               std::optional<int>& g, SimTime& at) -> Co<void> {
    f = co_await c.recv_for(5_ms);
    g = co_await c.recv_for(50_ms);
    at = s.now();
  }(sim, ch, first, second, second_at));
  sim.schedule(20_ms, [&] { ch.send(9); });
  sim.run();
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 9);
  EXPECT_EQ(second_at, 20_ms);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.pending_receivers(), 0u);
  // The second wait's cancelled timer still pops at 5 + 50 ms.
  EXPECT_EQ(sim.now(), 55_ms);
}

TEST(Channel, BeatenTimeoutStillCountsAsAnEvent) {
  // Events: the receiver's start (0), the send (3 ms), the receiver's
  // resume (3 ms), and the disarmed timer (10 ms), which pops and counts
  // even though it resumes nothing.
  auto build = [](Simulator& sim, Channel<int>& ch, std::optional<int>& got) {
    sim.spawn([](Channel<int>& c, std::optional<int>& g) -> Co<void> {
      g = co_await c.recv_for(10_ms);
    }(ch, got));
    sim.schedule(3_ms, [&ch] { ch.send(7); });
  };
  {
    Simulator sim;
    Channel<int> ch(sim);
    std::optional<int> got;
    build(sim, ch, got);
    sim.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 7);
    EXPECT_EQ(sim.events_processed(), 4u);
    EXPECT_EQ(sim.now(), 10_ms);
  }
  {
    Simulator sim;
    Channel<int> ch(sim);
    std::optional<int> got;
    build(sim, ch, got);
    sim.set_event_limit(3);
    sim.run();
    EXPECT_TRUE(sim.event_limit_hit());
    EXPECT_EQ(sim.events_processed(), 3u);
    EXPECT_EQ(sim.now(), 3_ms);
    EXPECT_TRUE(got.has_value());
    sim.set_event_limit(4);
    sim.run();
    EXPECT_EQ(sim.events_processed(), 4u);
    EXPECT_EQ(sim.now(), 10_ms);
  }
}

TEST(Simulator, CallbackSchedulingThousandsWhileRunningSeesAllInOrder) {
  // The outer callback schedules 3000 more while it runs, which grows the
  // event heap and the callback storage many times over. Its own captured
  // state must survive that (it was moved out before it ran), and the inner
  // callbacks, half with captures too large for std::function's inline
  // buffer, must all run in (time, schedule) order.
  Simulator sim;
  constexpr int kInner = 3000;
  std::vector<int> order;
  std::string outer_tag_after;
  const std::string tag(64, 'x');
  sim.schedule(1_ms, [&sim, &order, &outer_tag_after, tag] {
    for (int i = 0; i < kInner; ++i) {
      const SimTime at = sim.now() + (i < kInner / 2 ? 2_ms : 1_ms);
      if (i % 2 == 0) {
        sim.schedule(at, [&order, i] { order.push_back(i); });
      } else {
        std::array<std::int64_t, 8> big{};
        big[7] = i;
        sim.schedule(at, [&order, big] {
          order.push_back(static_cast<int>(big[7]));
        });
      }
    }
    outer_tag_after = tag;
  });
  sim.run();
  EXPECT_EQ(outer_tag_after, tag);
  // Second half (1 ms later than the outer) first, each half in order.
  std::vector<int> expected;
  for (int i = kInner / 2; i < kInner; ++i) expected.push_back(i);
  for (int i = 0; i < kInner / 2; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(kInner) + 1);
}

TEST(Channel, LargeBacklogDrainedInBurstsStaysFifo) {
  // 1000 values queue up before anyone receives; the receiver drains 250
  // per burst while a producer tops the queue up by 100 between bursts, so
  // the queue's consumed prefix is compacted away under a live tail.
  Simulator sim;
  Channel<int> ch(sim);
  int next = 0;
  for (; next < 1000; ++next) ch.send(next);
  for (int burst = 1; burst <= 5; ++burst) {
    sim.schedule(millis(burst) - 1, [&] {
      for (int k = 0; k < 100; ++k) ch.send(next++);
    });
  }
  std::vector<int> got;
  sim.spawn([](Simulator& s, Channel<int>& c, std::vector<int>& g) -> Co<void> {
    for (int burst = 0; burst < 6; ++burst) {
      for (int k = 0; k < 250; ++k) {
        if (k % 2 == 0) {
          g.push_back(co_await c.recv());
        } else if (auto v = c.try_recv()) {
          g.push_back(*v);
        }
      }
      co_await s.sleep(1_ms);
    }
  }(sim, ch, got));
  sim.run();
  ASSERT_EQ(got.size(), 1500u);
  for (int i = 0; i < 1500; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i) << "at " << i;
    if (got[static_cast<std::size_t>(i)] != i) break;
  }
  EXPECT_TRUE(ch.empty());
}

// --------------------------------------------------------------------------
// Allocation pin: the steady-state recv_for path allocates nothing
// --------------------------------------------------------------------------

TEST(Channel, RecvForRoundTripsAllocateNothingInSteadyState) {
  // A client sends a ping and waits for the echo with a 10 ms timeout that
  // the echo always beats, then sleeps 1 ms; about ten beaten timers are
  // pending at any time. After 16 warm-up rounds have grown the event heap
  // and the timer storage to that peak, 10,000 further round trips must
  // make no heap allocation at all.
  Simulator sim;
  Channel<int> ping(sim);
  Channel<int> pong(sim);
  constexpr int kWarmup = 16;
  constexpr int kRounds = 10000;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  int answered = 0;
  sim.spawn([](Channel<int>& in, Channel<int>& out) -> Co<void> {
    for (;;) out.send(co_await in.recv());
  }(ping, pong));
  sim.spawn([](Simulator& s, Channel<int>& out, Channel<int>& in,
               std::uint64_t& b, std::uint64_t& a, int& ok) -> Co<void> {
    for (int i = 0; i < kWarmup + kRounds; ++i) {
      if (i == kWarmup) b = dodo::testing::allocation_count();
      out.send(i);
      const auto v = co_await in.recv_for(10_ms);
      if (v && *v == i) ++ok;
      co_await s.sleep(1_ms);
    }
    a = dodo::testing::allocation_count();
  }(sim, ping, pong, before, after, answered));
  sim.run();
  EXPECT_EQ(answered, kWarmup + kRounds);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace dodo::sim

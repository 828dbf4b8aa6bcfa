// Unit tests for the discrete-event core.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/sim.hpp"

namespace {

using lf::sim::simulation;

TEST(Simulation, StartsAtZero) {
  simulation s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, RunsEventsInTimeOrder) {
  simulation s;
  std::vector<int> order;
  s.schedule_at(2.0, [&]() { order.push_back(2); });
  s.schedule_at(1.0, [&]() { order.push_back(1); });
  s.schedule_at(3.0, [&]() { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulation, FifoTieBreakAtEqualTimes) {
  simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(1.0, [&, i]() { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, RelativeScheduling) {
  simulation s;
  double fired_at = -1.0;
  s.schedule_at(5.0, [&]() {
    s.schedule(2.5, [&]() { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&]() { ++fired; });
  s.schedule_at(10.0, [&]() { ++fired; });
  s.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, HandlerMayScheduleMore) {
  simulation s;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 100) s.schedule(0.001, chain);
  };
  s.schedule(0.0, chain);
  s.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.executed_events(), 100u);
}

TEST(Simulation, RejectsPastAndNegative) {
  simulation s;
  s.schedule_at(5.0, []() {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, []() {}), std::invalid_argument);
  EXPECT_THROW(s.schedule(-1.0, []() {}), std::invalid_argument);
}

// A closure that counts its live copies, so tests can see when the event
// core destroys it.
struct counted {
  int* live;
  int* calls;
  counted(int* l, int* c) : live{l}, calls{c} { ++*live; }
  counted(const counted& o) : live{o.live}, calls{o.calls} { ++*live; }
  counted(counted&& o) noexcept : live{o.live}, calls{o.calls} { ++*live; }
  counted& operator=(const counted&) = delete;
  ~counted() { --*live; }
  void operator()() const { ++*calls; }
};

TEST(Simulation, RandomizedFiringOrderMatchesStableSortByTimeThenSeq) {
  // Thousands of events on a coarse time grid (many equal times) whose
  // handlers schedule children at zero delay and at later grid points.
  // The firing order must equal a stable sort of every scheduled event by
  // (t, scheduling order), across a run_until/run split.
  struct rec {
    double t;
    std::uint64_t seq;
  };
  simulation s;
  std::mt19937_64 gen{20220822};
  std::uniform_int_distribution<int> grid{0, 40};
  std::uniform_int_distribution<int> kids{0, 2};
  std::uniform_int_distribution<int> step{0, 6};
  std::vector<rec> scheduled;
  std::vector<std::uint64_t> fired;
  const std::size_t cap = 6000;
  std::function<void(double)> add = [&](double t) {
    const std::uint64_t seq = scheduled.size();
    scheduled.push_back({t, seq});
    s.schedule_at(t, [&, seq]() {
      fired.push_back(seq);
      const int n = kids(gen);
      for (int k = 0; k < n && scheduled.size() < cap; ++k) {
        add(s.now() + 0.25 * step(gen));  // step 0: same time, FIFO behind
      }
    });
  };
  for (int i = 0; i < 2000; ++i) add(0.25 * grid(gen));
  s.run_until(5.0);
  EXPECT_GT(s.pending_events(), 0u);
  s.run();

  std::vector<rec> expect = scheduled;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const rec& a, const rec& b) { return a.t < b.t; });
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], expect[i].seq) << "at position " << i;
  }
  EXPECT_EQ(s.executed_events(), scheduled.size());
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_GT(scheduled.size(), 4000u);
}

TEST(Simulation, FiredAndPendingClosuresAreDestroyed) {
  int live = 0;
  int calls = 0;
  {
    simulation s;
    for (int i = 0; i < 600; ++i) {  // spans several slab chunks
      s.schedule_at(1.0 + i, counted{&live, &calls});
    }
    EXPECT_EQ(live, 600);
    s.run_until(100.5);
    EXPECT_EQ(calls, 100);
    EXPECT_EQ(live, 500);  // fired closures are gone
  }
  EXPECT_EQ(calls, 100);  // destroyed, never run
  EXPECT_EQ(live, 0);
}

TEST(Simulation, ClosureLargerThanInlineBufferRunsFromTheHeap) {
  std::array<std::uint64_t, 32> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * i;
  std::vector<int> order;
  std::uint64_t sum = 0;
  int live = 0;
  int calls = 0;
  auto big = [&, payload, c = counted{&live, &calls}]() {
    c();
    for (auto v : payload) sum += v;
    order.push_back(1);
  };
  static_assert(!simulation::fits_inline<decltype(big)>);
  {
    simulation s;
    s.schedule_at(1.0, [&]() { order.push_back(0); });
    s.schedule_at(1.0, big);
    s.schedule_at(1.0, [&]() { order.push_back(2); });
    s.schedule_at(2.0, std::move(big));  // pending at destruction
    s.run_until(1.5);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sum, 10416u);  // sum of i^2, i < 32
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(live, 1);  // only the moved-from local `big` remains
}

TEST(Simulation, ThrowingHandlerReleasesItsSlotAndSimulationStaysUsable) {
  simulation s;
  int live = 0;
  int calls = 0;
  std::vector<int> order;
  s.schedule_at(1.0, [&, c = counted{&live, &calls}]() {
    c();
    throw std::runtime_error{"handler failed"};
  });
  s.schedule_at(2.0, [&]() { order.push_back(2); });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(live, 0);  // the throwing closure was destroyed
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_EQ(s.executed_events(), 1u);
  EXPECT_EQ(s.pending_events(), 1u);
  // Reuse the freed slot and keep going.
  for (int i = 0; i < 300; ++i) {
    s.schedule(0.5, [&, i]() { order.push_back(100 + i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 301u);
  EXPECT_EQ(order[0], 100);
  EXPECT_EQ(order[299], 399);
  EXPECT_EQ(order[300], 2);
  EXPECT_EQ(s.executed_events(), 302u);
}

TEST(Simulation, RunningHandlerSurvivesSlabGrowth) {
  // The running closure stays in its slot while its handler schedules
  // enough events to add slab chunks; its captures must stay intact.
  simulation s;
  std::array<std::uint64_t, 8> tag{};
  tag.fill(0x5eed);
  std::uint64_t seen = 0;
  int ran = 0;
  s.schedule(0.0, [&, tag]() {
    for (int i = 0; i < 2000; ++i) s.schedule(1.0, [&]() { ++ran; });
    for (auto v : tag) seen += v;
  });
  s.run();
  EXPECT_EQ(seen, 8u * 0x5eed);
  EXPECT_EQ(ran, 2000);
}

}  // namespace

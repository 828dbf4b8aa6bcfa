// The experiments' self-rescheduling closures (userspace label ticks,
// pattern shifts, the moving hotspot, flowlet re-selection, goodput
// sampling) must not outlive their run.  Outside the sanitizers this binary
// counts live operator-new allocations and checks that a repeated run
// returns every one; under ASan, LeakSanitizer checks the same at exit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/cc/cc_experiment.hpp"
#include "apps/lb/lb_experiment.hpp"
#include "apps/sched/sched_experiment.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LF_COUNT_ALLOCATIONS 0
#else
#define LF_COUNT_ALLOCATIONS 1

namespace {
std::atomic<long long> g_live_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#endif

namespace {

using namespace lf::apps;

/// Live allocations a second identical run leaves behind (the first run
/// fills any process-wide registries); always 0 under the sanitizers.
template <typename Run>
long long leaked_by_repeat(Run run) {
  run();
#if LF_COUNT_ALLOCATIONS
  const long long before = g_live_allocations.load();
  run();
  return g_live_allocations.load() - before;
#else
  return 0;
#endif
}

TEST(ExperimentClosureLeaks, SchedUserspaceTicksAndPatternShifts) {
  sched_experiment_config cfg;
  cfg.deployment = sched_deployment::chardev;  // per-host label ticks
  cfg.hosts_per_leaf = 2;
  cfg.arrival_rate = 500.0;
  cfg.total_flows = 40;
  cfg.pretrain_flows = 100;
  cfg.pretrain_epochs = 5;
  cfg.pattern_shift_period = 0.01;
  cfg.max_sim_time = 5.0;
  std::size_t completed = 0;
  EXPECT_EQ(leaked_by_repeat(
                [&]() { completed = run_sched_experiment(cfg).completed; }),
            0);
  EXPECT_EQ(completed, 40u);
}

TEST(ExperimentClosureLeaks, LbTicksHotspotAndReselection) {
  lb_experiment_config cfg;
  cfg.deployment = lb_deployment::chardev;  // label ticks + reselection
  cfg.hosts_per_leaf = 2;
  cfg.arrival_rate = 400.0;
  cfg.total_flows = 30;
  cfg.pretrain_samples = 100;
  cfg.pretrain_epochs = 5;
  cfg.hotspot_bps = 1e9;
  cfg.hotspot_switch_period = 0.01;
  cfg.max_sim_time = 5.0;
  std::size_t completed = 0;
  EXPECT_EQ(leaked_by_repeat(
                [&]() { completed = run_lb_experiment(cfg).completed; }),
            0);
  EXPECT_GT(completed, 0u);
}

TEST(ExperimentClosureLeaks, CcGoodputSampler) {
  cc_single_flow_config cfg;
  cfg.scheme = cc_scheme::cubic;
  cfg.duration = 0.5;
  cfg.warmup = 0.1;
  cfg.sample_interval = 0.01;
  std::size_t samples = 0;
  EXPECT_EQ(leaked_by_repeat([&]() {
              samples = run_cc_single_flow(cfg).goodput.points().size();
            }),
            0);
  EXPECT_GT(samples, 10u);
}

}  // namespace

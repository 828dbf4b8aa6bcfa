// rt stress harness: real threads against the real-thread datapath engine.
//
// M flows × N worker threads route packets and run compiled integer
// inference while one writer thread performs randomized install / switch /
// no-op-switch cycles and the workers interleave FINs, idle expiry, batched
// routing and random think time.  Every worker asserts the §3.4
// flow-consistency invariant online: a flow-cache *hit* must return exactly
// the generation the flow pinned at its last miss — i.e. no flow ever
// observes two model generations within one cache incarnation.  Batched
// results are checked against the same invariant, result by result.
//
// The binary doubles as the BENCH_rt_engine.json reporter:
//   phase 1  single-threaded no-switch scalar baseline
//   phase 2  single-threaded batched-vs-scalar throughput (route_batch)
//   phase 3  worker-count sweep (default 1/2/4/8/16) under a live switch
//            storm → the scaling curve, per-point L1 hit rate and lock
//            acquisitions per route
//   phase 4  the full N-thread invariant stress (what the TSan job runs)
//
// Exit status is nonzero on any invariant violation (in any phase), on a
// missed switch target, on version-lifecycle leaks, or when the main phase
// routed nothing.
//
// Env knobs (parsed strictly by rt/harness_env.hpp: a malformed or
// out-of-range value exits 2 before any thread starts):
//   LF_RT_THREADS        main-stress workers            (default 4)
//   LF_RT_FLOWS          flows per worker               (default 256)
//   LF_RT_SWITCHES       min snapshot switches          (default 120)
//   LF_RT_SECONDS        main-stress duration           (default 2.0; 0.6 fast)
//   LF_RT_SHARDS         flow-cache shards; 0 = derive from workers (default 0)
//   LF_RT_L1             per-worker L1 slots; 0 disables (default 64)
//   LF_RT_BATCH          batch size mixed into the stress; 0 = scalar only
//                        (default 8; ~25% of iterations route a batch)
//   LF_RT_SWEEP          comma list of worker counts    (default "1,2,4,8,16";
//                        empty string skips the sweep phase)
//   LF_RT_SWEEP_SECONDS  per-sweep-point duration       (default 0.5; 0.15 fast)
//   LF_RT_MODELS         logical models behind the one engine (default 1).
//                        With N > 1 every worker routes its flow partition
//                        across all N models and checks the consistency
//                        invariant per (model, flow); the writer storms all
//                        N lifecycles through the shared switch epoch.
//   LF_RT_SHADOW         shadow sample rate in [0,1] (default 0).  Nonzero
//                        turns on standby shadow inference on the sampled
//                        slice — the gate itself stays disabled here so the
//                        switch storm never stalls; this knob exists to put
//                        the peek_shadow/install/switch races under TSan.
//   LF_RT_LAT            route-latency histograms: 1 (default) on, 0 off.
//                        Applied to every phase so the scaling ratios
//                        compare like with like.
//   LF_RT_LAT_SHIFT      time 1-in-2^shift routes (default 0 = all)
//   LF_RT_BLACKBOX       flight-recorder events per ring (default 4096;
//                        0 disables the recorder)
//   LF_RT_STATS_INTERVAL_MS  stats-sampler window in ms, [0, 3600000]
//                        (default 100).  0 turns the sampler off, and with
//                        it the watchdog and STATS_rt_engine.prom; it exits
//                        2 with any LF_RT_INJECT_* or probation on, whose
//                        verdicts ride the sampler's tick
//   LF_RT_STATS_OUT      Prometheus text dump path (default
//                        <bench dir>/STATS_rt_engine.prom)
//   LF_RT_STATS_FIFO     live-scrape FIFO path (default off)
//   LF_RT_WATCHDOG*      anomaly watchdog knobs (see anomaly_watchdog.hpp;
//                        default on, riding the phase-4 stats sampler)
//   LF_RT_INJECT_STALL   nonzero: swap a ~250x-MACs model into every logical
//                        model for the [0.30d, 0.50d) window — a true p999 /
//                        throughput regression the watchdog must catch
//   LF_RT_INJECT_SWITCH_STORM  nonzero: tight install+switch flip loop over
//                        [0.65d, 0.85d) — every flip bumps the shared switch
//                        epoch, so worker L1 hit rate collapses
//   LF_RT_INJECT_BAD_SWITCH  nonzero: at 0.40d the writer installs and
//                        switches to a degraded (~250x MACs) net on model 0
//                        and then stops churning — a bad snapshot that
//                        slipped past the gate.  Implies probation + the
//                        watchdog rollback policy; the verdict FAILs unless
//                        a post_switch_regression incident named the
//                        installed gen, exactly one rollback re-promoted the
//                        pre-switch gen, and the post-rollback p999 tail
//                        recovered to the clean-prefix level.
//                        With any injection on, the exit verdict also
//                        FAILs unless the expected incidents fired and no
//                        incident fired during the clean prefix.
//   LF_RT_PROBATION_WINDOWS  probation hold length in sampler windows
//                        (default 0 = off; LF_RT_INJECT_BAD_SWITCH defaults
//                        it to 30).  Nonzero also arms the watchdog's
//                        auto-rollback policy.
//   LF_BENCH_FAST        shrink durations for smoke runs
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codegen/snapshot.hpp"
#include "nn/mlp.hpp"
#include "rt/anomaly_watchdog.hpp"
#include "rt/harness_env.hpp"
#include "rt/rt_deployment.hpp"
#include "rt/stats_sampler.hpp"
#include "util/bench_report.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/run_report.hpp"

namespace {

using namespace lf;

bool fast_mode() {
  const char* v = std::getenv("LF_BENCH_FAST");
  return v != nullptr && *v != '\0' && *v != '0';
}

double now_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Pool of pre-generated snapshots the writer cycles through (generation is
/// the §3.1 pipeline; it is paid once here so the stress loop measures the
/// datapath, not gcc).
std::vector<codegen::snapshot> make_snapshot_pool(std::size_t n) {
  std::vector<codegen::snapshot> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rng g{0x5eed0000 + i};
    pool.push_back(codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g),
                                              "rt-ffnn", i + 1));
  }
  return pool;
}

/// Scripted fault injection for the main stress run (phase 4 only).  Phases
/// are fractions of the nominal duration so a clean prefix always exists for
/// the watchdog to build baselines over before anything is injected.
struct inject_plan {
  bool stall = false;  ///< heavy-model swap (p999 / throughput regression)
  bool storm = false;  ///< tight flip loop (L1 hit-rate collapse)
  bool bad = false;    ///< one bad switch past the gate (probation rollback)
  double stall_start = 0.0, stall_end = 0.0;
  double storm_start = 0.0, storm_end = 0.0;
  double bad_start = 0.0;
  /// Pre-generated heavy snapshots (one per logical model) plus the measured
  /// §3.1 generation cost, mirrored into the control ring as a `train`
  /// lifecycle stage when the fault is injected.
  std::vector<codegen::snapshot> heavy;
  std::uint64_t heavy_train_ns = 0;
  /// Filled by the writer thread when the bad switch lands (read by the
  /// verdict after the joins): the probation hold's pre-switch gen (the
  /// rollback target) and the degraded gen it installed.
  mutable std::atomic<std::uint64_t> bad_prev_gen{0};
  mutable std::atomic<std::uint64_t> bad_gen{0};
  bool any() const noexcept { return stall || storm || bad; }
  /// Earliest injected disturbance: incidents before this are false
  /// positives.
  double clean_end() const noexcept {
    double e = 1e300;
    if (stall) e = std::min(e, stall_start);
    if (storm) e = std::min(e, storm_start);
    if (bad) e = std::min(e, bad_start);
    return e;
  }
};

/// The stall fault: same 8 -> 1 I/O shape as the pool nets (worker inputs
/// stay valid) but ~250x the multiply-accumulates — integer inference per
/// route genuinely balloons, which is what a p999 regression looks like.
std::vector<codegen::snapshot> make_heavy_pool(std::size_t n) {
  std::vector<codegen::snapshot> out;
  out.reserve(n);
  const nn::layer_spec layers[] = {{128, nn::activation::relu},
                                   {128, nn::activation::relu},
                                   {1, nn::activation::linear}};
  for (std::size_t i = 0; i < n; ++i) {
    rng g{0xbeef0000 + i};
    nn::mlp net{8, layers, g};
    out.push_back(codegen::generate_snapshot(net, "rt-heavy", 1));
  }
  return out;
}

struct worker_outcome {
  std::uint64_t violations = 0;
  std::uint64_t routes = 0;
  std::uint64_t inferences = 0;
};

/// One worker thread: routes its own flow partition (scalar and — when
/// `batch > 0` — batched, ~25% of iterations), FINs randomly, expires idle
/// entries occasionally, and checks the consistency invariant on every
/// result.
worker_outcome run_worker(rt::datapath_engine& engine, rt::worker_handle& w,
                          std::uint64_t flow_base, std::size_t flows,
                          std::size_t batch, std::uint64_t seed,
                          std::chrono::steady_clock::time_point t0,
                          const std::atomic<bool>& stop) {
  rng g{seed};
  worker_outcome out;
  const std::size_t models = engine.model_count();
  // expected generation per owned (model, flow); 0 = not pinned (flows are
  // worker-partitioned, so this thread is the only router/FINisher — and
  // each model's cache entry for a flow is an independent binding).
  std::vector<std::uint64_t> expected(models * flows, 0);
  std::vector<fp::s64> input(8);
  std::vector<fp::s64> output(1);
  std::vector<netsim::flow_id_t> bflows(batch);
  std::vector<std::size_t> bidx(batch);
  std::vector<fp::s64> binputs(batch * 8);
  std::vector<fp::s64> bouts(batch * 1);
  std::vector<rt::route_result> bresults(batch);
  std::uint64_t iter = 0;

  const auto pick_model = [&]() -> core::model_key {
    return models == 1 ? core::k_default_model
                       : static_cast<core::model_key>(g.uniform_int(
                             0, static_cast<std::int64_t>(models) - 1));
  };
  const auto check = [&](const rt::route_result& r, core::model_key m,
                         std::size_t idx) {
    if (r.gen == 0) return;
    ++out.routes;
    if (r.served) ++out.inferences;
    // The invariant: a hit serves exactly the generation pinned at this
    // (model, flow)'s last miss (expected != 0 always holds on a hit,
    // because this worker owns the flow and every hit follows a miss).
    const std::size_t slot = static_cast<std::size_t>(m) * flows + idx;
    if (r.hit && r.gen != expected[slot]) {
      ++out.violations;
      // Black-box first, accounting second: the recorder gets the violating
      // flow's key and both generations while the rings still hold the
      // events leading up to it.
      engine.record_violation(
          w, core::composite_flow_key(m, static_cast<netsim::flow_id_t>(
                                             flow_base + idx)),
          expected[slot], r.gen);
    }
    expected[slot] = r.gen;
  };

  while (!stop.load(std::memory_order_acquire)) {
    ++iter;
    const double now = now_seconds(t0);
    if (batch > 0 && (iter & 3) == 0) {
      // Batched leg: `batch` random owned flows through one route_batch
      // (batches are single-model per call, like a per-model NIC queue).
      const core::model_key m = pick_model();
      for (std::size_t b = 0; b < batch; ++b) {
        const auto idx = static_cast<std::size_t>(
            g.uniform_int(0, static_cast<std::int64_t>(flows) - 1));
        bidx[b] = idx;
        bflows[b] = static_cast<netsim::flow_id_t>(flow_base + idx);
        for (std::size_t j = 0; j < 8; ++j) {
          binputs[b * 8 + j] = g.uniform_int(-900, 900);
        }
      }
      engine.route_batch(w, m, bflows, now, binputs, bouts, bresults);
      for (std::size_t b = 0; b < batch; ++b) check(bresults[b], m, bidx[b]);
    } else {
      const core::model_key m = pick_model();
      const std::size_t idx = static_cast<std::size_t>(
          g.uniform_int(0, static_cast<std::int64_t>(flows) - 1));
      const auto flow = static_cast<netsim::flow_id_t>(flow_base + idx);
      for (auto& x : input) x = g.uniform_int(-900, 900);  // within io_scale
      const rt::route_result r = engine.route(w, m, flow, now, input, output);
      check(r, m, idx);
    }
    // Interleavings: FIN ~3% of iterations; a full idle-expiry sweep every
    // few thousand iterations races the sweep against other workers.
    if (g.uniform() < 0.03) {
      const core::model_key m = pick_model();
      const std::size_t idx = static_cast<std::size_t>(
          g.uniform_int(0, static_cast<std::int64_t>(flows) - 1));
      engine.flow_finished(w, m,
                           static_cast<netsim::flow_id_t>(flow_base + idx));
      expected[static_cast<std::size_t>(m) * flows + idx] = 0;
    } else if ((iter & 0x1fff) == 0) {
      engine.expire_idle(now_seconds(t0));
    }
  }
  return out;
}

struct stress_stats {
  double rps = 0.0;
  double l1_hit_rate = 0.0;
  double locks_per_route = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t switches = 0;
};

/// The main phase's observers, read from the environment at the top of
/// main() so a bad value stops the harness before any thread starts.
struct observer_config {
  rt::stats_sampler_config stats;
  rt::watchdog_config watchdog;
};

/// One full stress run: n workers + one randomized writer for `duration`
/// seconds (and, when `min_switches > 0`, until the switch target is met).
/// `observers` (with `reg`) turns on the stats sampler and the watchdog.
stress_stats run_stress(const rt::engine_config& cfg,
                        const std::vector<codegen::snapshot>& pool,
                        std::size_t n_workers, std::size_t flows,
                        std::size_t batch, double duration,
                        std::size_t min_switches,
                        metrics::registry* reg = nullptr,
                        rt::datapath_engine** engine_out = nullptr,
                        std::vector<worker_outcome>* outcomes_out = nullptr,
                        rt::stats_sampler** sampler_out = nullptr,
                        const inject_plan* inject = nullptr,
                        rt::anomaly_watchdog** watchdog_out = nullptr,
                        const observer_config* observers = nullptr) {
  static std::unique_ptr<rt::datapath_engine> keep_alive;  // for engine_out
  // Statics tear down in reverse declaration order, so borrow direction
  // dictates this order: the watchdog borrows the engine, and the sampler
  // borrows both — sampler dies first, watchdog second, engine last.
  static std::unique_ptr<rt::anomaly_watchdog> keep_watchdog;
  static std::unique_ptr<rt::stats_sampler> keep_sampler;
  auto engine = rt::build_engine(cfg);
  if (reg != nullptr) engine->register_metrics(*reg, "rt");
  const std::size_t models = engine->model_count();
  for (std::size_t m = 0; m < models; ++m) {
    const auto key = static_cast<core::model_key>(m);
    engine->install(key, pool[m % pool.size()]);
    engine->switch_active(key);
  }

  std::vector<rt::worker_handle*> handles;
  for (std::size_t i = 0; i < n_workers; ++i) {
    rt::worker_handle& w = engine->register_worker();
    if (reg != nullptr) {
      w.register_metrics(*reg, "rt.worker" + std::to_string(i));
    }
    handles.push_back(&w);
  }

  // The windowed stats sampler rides the instrumented (registry) run only,
  // and only while its interval is nonzero: the sweep phases measure
  // scaling and should not pay even the sampler's cache traffic.
  // Same borrow-direction ordering as the keep_* statics: the sampler is
  // declared after the watchdog it calls into, so it is destroyed first.
  std::unique_ptr<rt::anomaly_watchdog> watchdog;
  std::unique_ptr<rt::stats_sampler> sampler;
  if (reg != nullptr && observers != nullptr &&
      observers->stats.interval_ms > 0.0) {
    rt::stats_sampler_config scfg = observers->stats;
    if (scfg.text_out.empty()) {
      scfg.text_out = bench::output_dir() + "/STATS_rt_engine.prom";
    }
    sampler = std::make_unique<rt::stats_sampler>(*engine, scfg);
    sampler->register_metrics(*reg, "rt");
    rt::watchdog_config wcfg = observers->watchdog;
    if (wcfg.enabled) {
      wcfg.incident_label = "rt_engine";
      // Probation without a policy is just a slower retire: whenever holds
      // are open the watchdog is the component that acts on them.
      wcfg.auto_rollback = cfg.probation_windows != 0;
      watchdog = std::make_unique<rt::anomaly_watchdog>(std::move(wcfg),
                                                        engine.get());
      watchdog->register_metrics(*reg, "rt.watchdog");
      sampler->attach_watchdog(watchdog.get());
    }
    sampler->start();
  }

  std::atomic<bool> stop{false};
  const auto t0 = std::chrono::steady_clock::now();

  // Writer: randomized install/switch/no-op interleavings until both the
  // duration and the switch target are met.
  std::thread writer{[&]() {
    rng g{0x3717e4};
    std::uint64_t version = 1;
    bool stall_active = false;
    bool bad_active = false;
    std::uint64_t storm_flips = 0;
    // The bad-switch fault waives the switch target once it lands: the
    // writer deliberately stops churning so the rollback flip is the last
    // lifecycle event the tail windows see.
    while (now_seconds(t0) < duration ||
           (!bad_active && engine->switches() < min_switches + 1)) {
      const double now = now_seconds(t0);
      // ---- fault injection (phase-4 only; see inject_plan) ----
      if (inject != nullptr && inject->bad && now >= inject->bad_start) {
        if (!bad_active) {
          bad_active = true;
          // One degraded net through the ordinary install+switch path on
          // model 0 — the shadow gate is off here, i.e. the candidate was
          // admitted — then hold still.  The probation hold now retains the
          // healthy incumbent; detection and the rollback flip are entirely
          // the watchdog/sampler thread's job while workers keep routing.
          codegen::snapshot snap = inject->heavy[0];
          snap.version = ++version;
          engine->record_lifecycle(trace::lifecycle_phase::train,
                                   core::k_default_model, version,
                                   inject->heavy_train_ns);
          engine->install(core::k_default_model, std::move(snap));
          engine->switch_active(core::k_default_model);
          const auto st = engine->probation(core::k_default_model);
          inject->bad_prev_gen.store(st.held_gen, std::memory_order_release);
          inject->bad_gen.store(st.promoted_gen, std::memory_order_release);
        }
        engine->maintain();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      if (inject != nullptr && inject->stall && now >= inject->stall_start &&
          now < inject->stall_end) {
        if (!stall_active) {
          stall_active = true;
          // Swap the heavy net into every logical model and hold it there:
          // per-route inference balloons, p999 and routes/sec regress for
          // real.  The generation cost is mirrored as a `train` lifecycle
          // stage so the anomaly dump correlates the regression with the
          // slow-path work that caused it.
          for (std::size_t m = 0; m < models; ++m) {
            const auto key = static_cast<core::model_key>(m);
            codegen::snapshot snap = inject->heavy[m % inject->heavy.size()];
            snap.version = ++version;
            engine->record_lifecycle(trace::lifecycle_phase::train, key,
                                     version, inject->heavy_train_ns);
            engine->install(key, std::move(snap));
            engine->switch_active(key);
          }
        }
        engine->maintain();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      if (stall_active) {
        // Stall window over: revert every model to a pool net so the
        // watchdog sees recovery (and re-arms) before the storm phase.
        stall_active = false;
        for (std::size_t m = 0; m < models; ++m) {
          const auto key = static_cast<core::model_key>(m);
          codegen::snapshot snap = pool[version % pool.size()];
          snap.version = ++version;
          engine->install(key, std::move(snap));
          engine->switch_active(key);
        }
      }
      if (inject != nullptr && inject->storm && now >= inject->storm_start &&
          now < inject->storm_end) {
        // Tight flip loop: every switch bumps the shared switch epoch, so
        // every worker's L1 invalidates between consecutive routes, and the
        // install rate outruns reclamation — the live version count holds
        // an order of magnitude above the steady churn level.
        const auto m = static_cast<core::model_key>(
            models == 1
                ? 0
                : g.uniform_int(0, static_cast<std::int64_t>(models) - 1));
        codegen::snapshot snap = pool[version % pool.size()];
        snap.version = ++version;
        engine->install(m, std::move(snap));
        engine->switch_active(m);
        engine->maintain();
        if ((++storm_flips & 255) == 0) {
          // Breathe every 256 flips: on a starved single-core host a
          // no-sleep loop can monopolize the CPU so thoroughly that the
          // stats sampler never folds a storm-era window — and an anomaly
          // nobody sampled is an anomaly nobody can detect.  The cadence is
          // deliberately coarse: the live-version level the watchdog
          // detects is flip rate x version residency, so breathing too
          // often would let reclamation keep pace and dissolve the very
          // anomaly being injected.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        continue;
      }
      // All model lifecycles are driven from one writer thread (the rt
      // contract), round-robining randomly so every model's flips land in
      // the shared switch epoch interleaved with the others'.
      const auto m = static_cast<core::model_key>(
          models == 1 ? 0
                      : g.uniform_int(0, static_cast<std::int64_t>(models) - 1));
      const double dice = g.uniform();
      if (dice < 0.75) {
        codegen::snapshot snap = pool[version % pool.size()];
        snap.version = ++version;
        engine->install(m, std::move(snap));
        engine->switch_active(m);
      } else if (dice < 0.85) {
        // Standby replaced before ever activating (orphan retirement path).
        codegen::snapshot snap = pool[version % pool.size()];
        snap.version = ++version;
        engine->install(m, std::move(snap));
      } else {
        // No-standby switch: must be a counted no-op, never a null flip.
        engine->switch_active(m);
      }
      engine->maintain();
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int>(g.uniform(100.0, 4000.0))));
    }
    stop.store(true, std::memory_order_release);
  }};

  std::vector<std::thread> pool_threads;
  std::vector<worker_outcome> outcomes(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    pool_threads.emplace_back([&, i]() {
      outcomes[i] = run_worker(*engine, *handles[i], (i + 1) * 1'000'000ull,
                               flows, batch, 0xf00d + i, t0, stop);
    });
  }
  for (auto& t : pool_threads) t.join();
  writer.join();
  // Stop after the joins: the final fold captures the tail of the run and
  // rewrites the on-disk text snapshot one last time.
  if (sampler != nullptr) sampler->stop();
  const double elapsed = now_seconds(t0);

  stress_stats st;
  st.switches = engine->switches();
  std::uint64_t routes = 0, l1_hits = 0;
  for (std::size_t i = 0; i < n_workers; ++i) {
    st.violations += outcomes[i].violations;
    routes += outcomes[i].routes;
    l1_hits += handles[i]->l1_hits();
  }
  st.rps = elapsed > 0 ? static_cast<double>(routes) / elapsed : 0.0;
  st.l1_hit_rate =
      routes > 0 ? static_cast<double>(l1_hits) / static_cast<double>(routes)
                 : 0.0;
  const auto totals = engine->cache().stats();
  st.locks_per_route =
      routes > 0 ? static_cast<double>(totals.lock_acquisitions) /
                       static_cast<double>(routes)
                 : 0.0;

  if (engine_out != nullptr) {
    // Hand the drained engine back to the caller (main stress phase needs
    // the lifecycle counters and registry gauges after the drain).
    keep_alive = std::move(engine);
    *engine_out = keep_alive.get();
  }
  if (sampler_out != nullptr) {
    keep_sampler = std::move(sampler);
    *sampler_out = keep_sampler.get();
  }
  if (watchdog_out != nullptr) {
    keep_watchdog = std::move(watchdog);
    *watchdog_out = keep_watchdog.get();
  }
  if (outcomes_out != nullptr) *outcomes_out = std::move(outcomes);
  return st;
}

}  // namespace

int main() {
  // Ranges keep every knob meaningful and the run's memory bounded
  // (each worker tracks models x flows expected generations).
  const std::size_t threads = rt::env_size("LF_RT_THREADS", 4, 1, 64);
  const std::size_t flows = rt::env_size("LF_RT_FLOWS", 256, 1, 65536);
  const std::size_t min_switches =
      rt::env_size("LF_RT_SWITCHES", 120, 0, 1'000'000'000);
  const double duration = rt::env_double(
      "LF_RT_SECONDS", fast_mode() ? 0.6 : 2.0, 0.01, 3600.0);
  const std::size_t shards = rt::env_size("LF_RT_SHARDS", 0, 0, 65536);
  const std::size_t l1_slots = rt::env_size("LF_RT_L1", 64, 0, 1 << 20);
  const std::size_t batch = rt::env_size("LF_RT_BATCH", 8, 0, 1024);
  const std::vector<std::size_t> sweep =
      rt::env_size_list("LF_RT_SWEEP", "1,2,4,8,16", 1, 64);
  const double sweep_seconds = rt::env_double(
      "LF_RT_SWEEP_SECONDS", fast_mode() ? 0.15 : 0.5, 0.01, 3600.0);
  const std::size_t models = rt::env_size("LF_RT_MODELS", 1, 1, 16);
  const double shadow_rate = rt::env_double("LF_RT_SHADOW", 0.0, 0.0, 1.0);
  const bool lat_on = rt::env_flag("LF_RT_LAT", true);
  const std::size_t lat_shift = rt::env_size("LF_RT_LAT_SHIFT", 0, 0, 63);
  const std::size_t blackbox =
      rt::env_size("LF_RT_BLACKBOX", 4096, 0, 1 << 24);
  const bool inject_stall = rt::env_flag("LF_RT_INJECT_STALL", false);
  const bool inject_storm = rt::env_flag("LF_RT_INJECT_SWITCH_STORM", false);
  const bool inject_bad = rt::env_flag("LF_RT_INJECT_BAD_SWITCH", false);
  const std::size_t probation_windows = rt::env_size(
      "LF_RT_PROBATION_WINDOWS", inject_bad ? 30 : 0, 0, 1 << 20);
  // Injection verdicts and probation holds ride the sampler's tick.
  const bool needs_sampler =
      inject_stall || inject_storm || inject_bad || probation_windows != 0;
  const observer_config observers{
      rt::stats_config_from_env(100.0, needs_sampler),
      rt::watchdog_config_from_env()};
  const unsigned host_cpus = std::thread::hardware_concurrency();

  rt::engine_config cfg;
  cfg.probation_windows = probation_windows;
  cfg.shards = shards;
  cfg.idle_timeout = 0.05;  // aggressive: force idle-expiry races
  cfg.l1_slots = l1_slots;
  cfg.models = models;
  cfg.shadow.sample_rate = shadow_rate;
  // Shadow inference races are what we stress; the gate would starve the
  // switch storm (the writer flips unconditionally), so keep it out.
  cfg.shadow.gate_enabled = false;
  // Telemetry applies to EVERY phase (baseline, batched, sweep, stress) so
  // the speedup ratios compare runs with identical per-route overhead.
  cfg.telemetry.latency = lat_on;
  cfg.telemetry.latency_sample_shift = static_cast<unsigned>(lat_shift);
  cfg.telemetry.blackbox_events = blackbox;
  // Anomaly dumps are rate-limited at the recorder: a flapping rule cannot
  // flood the bench directory (suppressions are counted, not silent).
  cfg.telemetry.blackbox_dump_interval_ns = 250'000'000;  // 250ms
  cfg.telemetry.blackbox_max_dumps = 16;
  cfg.max_workers = std::max<std::size_t>(
      threads + 1,
      (sweep.empty() ? 0 : *std::max_element(sweep.begin(), sweep.end())) + 1);

  std::printf(
      "rt stress: %zu workers x %zu flows, >= %zu switches, %.2fs "
      "(batch %zu, l1 %zu, %zu models, shadow %.3f, %u host cpus)\n",
      threads, flows, min_switches, duration, batch, l1_slots, models,
      shadow_rate, host_cpus);
  const std::vector<codegen::snapshot> pool = make_snapshot_pool(6);

  // ---- phase 1: single-threaded, no-switch scalar baseline -------------
  double baseline_rps = 0.0;
  {
    auto engine = rt::build_engine(cfg);
    engine->install(pool[0]);
    engine->switch_active();
    rt::worker_handle& w = engine->register_worker();
    std::atomic<bool> stop{false};
    const auto t0 = std::chrono::steady_clock::now();
    const double base_dur = std::min(duration * 0.5, 0.5);
    std::thread stopper{[&]() {
      std::this_thread::sleep_for(std::chrono::duration<double>(base_dur));
      stop.store(true, std::memory_order_release);
    }};
    const worker_outcome base =
        run_worker(*engine, w, 1, flows, 0, 0xba5e, t0, stop);
    stopper.join();
    const double elapsed = now_seconds(t0);
    baseline_rps = elapsed > 0 ? static_cast<double>(base.routes) / elapsed : 0;
    std::printf("baseline (1 worker, no switches, scalar): %.0f routes/s\n",
                baseline_rps);
  }

  // ---- phase 2: batched vs scalar (1 worker, no switches) --------------
  double batched_rps = 0.0;
  {
    constexpr std::size_t k_bench_batch = 16;
    auto engine = rt::build_engine(cfg);
    engine->install(pool[0]);
    engine->switch_active();
    rt::worker_handle& w = engine->register_worker();
    rng g{0xba7c4};
    std::vector<netsim::flow_id_t> bflows(k_bench_batch);
    std::vector<fp::s64> binputs(k_bench_batch * 8);
    std::vector<fp::s64> bouts(k_bench_batch);
    std::vector<rt::route_result> bresults(k_bench_batch);
    const auto t0 = std::chrono::steady_clock::now();
    const double dur = std::min(duration * 0.5, 0.5);
    std::uint64_t routed = 0;
    while (now_seconds(t0) < dur) {
      for (std::size_t b = 0; b < k_bench_batch; ++b) {
        bflows[b] = static_cast<netsim::flow_id_t>(
            1 + g.uniform_int(0, static_cast<std::int64_t>(flows) - 1));
        for (std::size_t j = 0; j < 8; ++j) {
          binputs[b * 8 + j] = g.uniform_int(-900, 900);
        }
      }
      engine->route_batch(w, bflows, now_seconds(t0), binputs, bouts,
                          bresults);
      routed += k_bench_batch;
    }
    const double elapsed = now_seconds(t0);
    batched_rps = elapsed > 0 ? static_cast<double>(routed) / elapsed : 0.0;
    std::printf("batched (1 worker, no switches, batch %zu): %.0f routes/s "
                "(%.2fx scalar)\n",
                k_bench_batch, batched_rps,
                baseline_rps > 0 ? batched_rps / baseline_rps : 0.0);
  }

  // ---- phase 3: worker-count sweep under a switch storm ----------------
  struct sweep_point {
    std::size_t workers;
    stress_stats st;
  };
  std::vector<sweep_point> curve;
  std::uint64_t sweep_violations = 0;
  for (const std::size_t n : sweep) {
    const stress_stats st =
        run_stress(cfg, pool, n, flows, batch, sweep_seconds, 0);
    sweep_violations += st.violations;
    curve.push_back({n, st});
    std::printf(
        "sweep %2zu workers: %9.0f routes/s (%.2fx), l1 %.3f, locks/route "
        "%.4f\n",
        n, st.rps, baseline_rps > 0 ? st.rps / baseline_rps : 0.0,
        st.l1_hit_rate, st.locks_per_route);
  }

  // ---- phase 4: main N-worker invariant stress -------------------------
  inject_plan inject;
  inject.stall = inject_stall;
  inject.storm = inject_storm;
  inject.bad = inject_bad;
  inject.stall_start = 0.30 * duration;
  inject.stall_end = 0.50 * duration;
  inject.storm_start = 0.65 * duration;
  inject.storm_end = 0.85 * duration;
  inject.bad_start = 0.40 * duration;
  if (inject.stall || inject.bad) {
    // Pay heavy-model generation before the clock starts so the stall
    // window measures the datapath regression, not codegen; the measured
    // cost is what the writer mirrors as the `train` lifecycle stage.
    const auto gen_t0 = std::chrono::steady_clock::now();
    inject.heavy = make_heavy_pool(inject.stall ? models : 1);
    inject.heavy_train_ns = static_cast<std::uint64_t>(
        now_seconds(gen_t0) * 1e9 / static_cast<double>(inject.heavy.size()));
  }
  if (inject.stall) {
    std::printf("inject: stall window [%.2fs, %.2fs) (heavy pool: %zu nets)\n",
                inject.stall_start, inject.stall_end, inject.heavy.size());
  }
  if (inject.storm) {
    std::printf("inject: switch storm window [%.2fs, %.2fs)\n",
                inject.storm_start, inject.storm_end);
  }
  if (inject.bad) {
    std::printf(
        "inject: bad switch at %.2fs (probation %zu windows, auto-rollback)\n",
        inject.bad_start, probation_windows);
  }
  metrics::registry reg;
  rt::datapath_engine* engine = nullptr;
  rt::stats_sampler* sampler = nullptr;
  rt::anomaly_watchdog* watchdog = nullptr;
  std::vector<worker_outcome> outcomes;
  const auto stress_t0 = std::chrono::steady_clock::now();
  const stress_stats main_st =
      run_stress(cfg, pool, threads, flows, batch, duration, min_switches,
                 &reg, &engine, &outcomes, &sampler,
                 inject.any() ? &inject : nullptr, &watchdog, &observers);
  const double elapsed = now_seconds(stress_t0);

  // Drain: FIN every flow, then retire everything demoted.  After the
  // grace period only the final active (and possibly standby) survive.
  engine->cache().clear(engine->snapshots());
  // A hold left open by the final switch is an orderly close, not a leak.
  engine->close_probation();
  engine->maintain();
  engine->epochs().synchronize();
  engine->publish_stats();

  std::uint64_t violations = sweep_violations, total_routes = 0,
                total_infers = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    violations += outcomes[i].violations;
    total_routes += outcomes[i].routes;
    total_infers += outcomes[i].inferences;
    std::printf("worker%zu: %.0f routes/s (%llu routes, %llu violations)\n",
                i, outcomes[i].routes / elapsed,
                static_cast<unsigned long long>(outcomes[i].routes),
                static_cast<unsigned long long>(outcomes[i].violations));
  }
  const double total_rps = total_routes / elapsed;
  const double speedup = baseline_rps > 0 ? total_rps / baseline_rps : 0.0;
  const std::uint64_t live = engine->versions_live();
  std::printf(
      "total: %.0f routes/s (%.2fx single-thread), l1 %.3f, locks/route "
      "%.4f, %llu switches, %llu no-op switches, %llu versions retired, "
      "%llu live, %llu violations\n",
      total_rps, speedup, main_st.l1_hit_rate, main_st.locks_per_route,
      static_cast<unsigned long long>(engine->switches()),
      static_cast<unsigned long long>(engine->switch_noops()),
      static_cast<unsigned long long>(engine->versions_retired()),
      static_cast<unsigned long long>(live),
      static_cast<unsigned long long>(violations));

  // ---- report ----------------------------------------------------------
  bench::report rep{"rt_engine", "real-thread datapath engine stress"};
  rep.config("threads", static_cast<double>(threads));
  rep.config("flows_per_worker", static_cast<double>(flows));
  rep.config("min_switches", static_cast<double>(min_switches));
  rep.config("shards", static_cast<double>(engine->config().shards));
  rep.config("l1_slots", static_cast<double>(engine->config().l1_slots));
  rep.config("batch", static_cast<double>(batch));
  rep.config("host_cpus", static_cast<double>(host_cpus));
  // Multi-model knobs are only reported when in use so the default
  // single-model fast-seed JSON stays byte-identical across this change.
  if (models > 1 || shadow_rate > 0.0) {
    rep.config("models", static_cast<double>(models));
    rep.config("shadow_sample_rate", shadow_rate);
    rep.summary("shadow_inferences",
                static_cast<double>(engine->shadow_inferences()));
  }
  rep.config("duration_seconds", elapsed);
  rep.config("sweep_seconds", sweep_seconds);
  rep.config_bool("fast_mode", fast_mode());
  // Injection knobs only appear when in use (same contract as the
  // multi-model knobs above: the default JSON stays stable).
  const double clean_end = inject.clean_end();
  if (inject.any()) {
    rep.config_bool("inject_stall", inject.stall);
    rep.config_bool("inject_switch_storm", inject.storm);
    rep.config_bool("inject_bad_switch", inject.bad);
    rep.config("inject_clean_prefix_seconds", clean_end);
  }
  if (inject.bad) {
    rep.config("probation_windows", static_cast<double>(probation_windows));
    rep.summary("rollbacks", static_cast<double>(engine->rollbacks()));
    rep.summary("rollback_noops",
                static_cast<double>(engine->rollback_noops()));
    rep.summary("bad_switch_gen", static_cast<double>(
                                      inject.bad_gen.load(
                                          std::memory_order_acquire)));
    rep.summary("bad_switch_prev_gen",
                static_cast<double>(inject.bad_prev_gen.load(
                    std::memory_order_acquire)));
  }
  rep.config_bool("latency_telemetry", lat_on);
  rep.config("latency_sample_shift", static_cast<double>(lat_shift));
  rep.config("blackbox_events", static_cast<double>(blackbox));
  if (sampler != nullptr) {
    rep.config("stats_interval_ms", sampler->config().interval_ms);
  }
  rep.summary("baseline_routes_per_sec", baseline_rps);
  rep.summary("batched_routes_per_sec", batched_rps);
  rep.summary("batched_speedup_vs_scalar",
              baseline_rps > 0 ? batched_rps / baseline_rps : 0.0);
  rep.summary("total_routes_per_sec", total_rps);
  rep.summary("total_inferences_per_sec", total_infers / elapsed);
  rep.summary("speedup_vs_single_thread", speedup);
  rep.summary("l1_hit_rate", main_st.l1_hit_rate);
  rep.summary("lock_acquisitions_per_route", main_st.locks_per_route);
  rep.summary("violations", static_cast<double>(violations));
  rep.summary("versions_live_after_drain", static_cast<double>(live));
  for (const sweep_point& p : curve) {
    const double x = static_cast<double>(p.workers);
    rep.add_point("scaling_routes_per_sec", x, p.st.rps);
    rep.add_point("scaling_speedup", x,
                  baseline_rps > 0 ? p.st.rps / baseline_rps : 0.0);
    rep.add_point("scaling_l1_hit_rate", x, p.st.l1_hit_rate);
    rep.add_point("scaling_locks_per_route", x, p.st.locks_per_route);
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    rep.add_point("per_worker_routes_per_sec", static_cast<double>(i),
                  outcomes[i].routes / elapsed);
  }

  // ---- live telemetry: whole-run percentiles + per-window time series --
  rt::latency_snapshot lat;
  engine->latency_snapshot_into(lat);
  if (lat.total() != 0) {
    rep.summary("latency_samples", static_cast<double>(lat.total()));
    rep.summary("latency_p50_ns", lat.quantile(0.50));
    rep.summary("latency_p99_ns", lat.quantile(0.99));
    rep.summary("latency_p999_ns", lat.quantile(0.999));
    rep.summary("latency_mean_ns", lat.approx_mean_ns());
  }
  std::vector<rt::stats_window> windows;
  if (sampler != nullptr) windows = sampler->windows();
  for (const rt::stats_window& w : windows) {
    rep.add_point("ts_routes_per_sec", w.t_s, w.routes_per_sec);
    if (w.samples != 0) {
      rep.add_point("ts_p50_ns", w.t_s, w.p50_ns);
      rep.add_point("ts_p99_ns", w.t_s, w.p99_ns);
      rep.add_point("ts_p999_ns", w.t_s, w.p999_ns);
    }
    if (w.routes != 0) {
      rep.add_point("ts_l1_hit_rate", w.t_s, w.l1_hit_rate);
      rep.add_point("ts_locks_per_route", w.t_s, w.locks_per_route);
    }
    // The series the retired_leak rule watches: post-mortems of a missed or
    // spurious leak verdict need the per-window live count, not just the
    // end-of-run gauge.
    rep.add_point("ts_versions_live", w.t_s,
                  static_cast<double>(w.versions_live));
    rep.add_point("ts_versions_retired", w.t_s,
                  static_cast<double>(w.versions_retired));
  }
  if (!windows.empty()) {
    rep.summary("stats_windows", static_cast<double>(windows.size()));
  }

  for (const auto& [name, value] : reg.scalars()) rep.summary(name, value);
  const std::string path = rep.write();
  if (!path.empty()) std::printf("[json] %s\n", path.c_str());

  // Incident file (absent when the run was clean — CI asserts exactly that).
  std::vector<rt::incident_record> incidents;
  if (watchdog != nullptr) {
    incidents = watchdog->incidents();
    const std::string inc_path = watchdog->write_incidents();
    if (!inc_path.empty()) std::printf("[incidents] %s\n", inc_path.c_str());
  }

  // ---- REPORT_rt_engine.html ------------------------------------------
  {
    report::flight_report fr;
    fr.title = "LiteFlow flight report: rt engine stress";
    fr.summary.emplace_back("workers", std::to_string(threads));
    fr.summary.emplace_back("routes/s",
                            std::to_string(static_cast<long long>(total_rps)));
    fr.summary.emplace_back("switches", std::to_string(engine->switches()));
    fr.summary.emplace_back("violations", std::to_string(violations));
    if (lat.total() != 0) {
      fr.summary.emplace_back(
          "latency p50/p99/p999 (ns)",
          std::to_string(static_cast<long long>(lat.quantile(0.50))) + " / " +
              std::to_string(static_cast<long long>(lat.quantile(0.99))) +
              " / " +
              std::to_string(static_cast<long long>(lat.quantile(0.999))));
    }
    if (watchdog != nullptr) {
      fr.summary.emplace_back("watchdog incidents",
                              std::to_string(incidents.size()));
    }
    if (!windows.empty()) {
      // Incident markers land on both telemetry charts: the regression and
      // the detection are readable off the same time axis.
      const std::vector<report::marker> markers =
          watchdog != nullptr ? watchdog->incident_markers()
                              : std::vector<report::marker>{};
      report::chart_data rate;
      rate.id = "throughput";
      rate.title = "Routes per second (per sampler window)";
      rate.y_label = "routes/s";
      report::series_data rps_series;
      rps_series.name = "routes/s";
      for (const rt::stats_window& w : windows) {
        rps_series.points.emplace_back(w.t_s, w.routes_per_sec);
      }
      rate.series.push_back(std::move(rps_series));
      rate.markers = markers;
      fr.charts.push_back(std::move(rate));

      report::chart_data pct;
      pct.id = "latency_percentiles";
      pct.title = "Route latency percentiles (per sampler window)";
      pct.y_label = "ns";
      report::series_data p50{"p50", {}}, p99{"p99", {}}, p999{"p999", {}};
      for (const rt::stats_window& w : windows) {
        if (w.samples == 0) continue;
        p50.points.emplace_back(w.t_s, w.p50_ns);
        p99.points.emplace_back(w.t_s, w.p99_ns);
        p999.points.emplace_back(w.t_s, w.p999_ns);
      }
      pct.series.push_back(std::move(p50));
      pct.series.push_back(std::move(p99));
      pct.series.push_back(std::move(p999));
      pct.markers = markers;
      fr.charts.push_back(std::move(pct));
    }
    if (watchdog != nullptr && !incidents.empty()) {
      fr.tables.push_back(watchdog->incidents_table());
    }
    if (lat.total() != 0) {
      report::histogram_data h;
      h.name = "route latency (ns)";
      h.mean = lat.approx_mean_ns();
      h.total = lat.total();
      for (std::size_t i = 0; i < rt::latency_snapshot::k_buckets; ++i) {
        if (lat.counts[i] == 0) continue;
        h.buckets.push_back(
            {static_cast<double>(rt::latency_histogram::bucket_floor(i)),
             static_cast<double>(rt::latency_histogram::bucket_floor(i) +
                                 rt::latency_histogram::bucket_width(i)),
             lat.counts[i]});
      }
      fr.histograms.push_back(std::move(h));
    }
    const std::string html = report::write_flight_report(fr, "rt_engine");
    if (!html.empty()) std::printf("[html] %s\n", html.c_str());
  }

  // ---- verdict ---------------------------------------------------------
  bool ok = true;
  // A run that routed nothing proves nothing: every other check below
  // would pass vacuously.
  if (threads == 0 || total_routes == 0) {
    std::fprintf(stderr, "FAIL: main phase routed nothing (%zu workers)\n",
                 threads);
    ok = false;
  }
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: %llu flow-consistency violations\n",
                 static_cast<unsigned long long>(violations));
    ok = false;
  }
  if (engine->switches() < min_switches) {
    std::fprintf(stderr, "FAIL: only %llu switches (target %zu)\n",
                 static_cast<unsigned long long>(engine->switches()),
                 min_switches);
    ok = false;
  }
  if (engine->switch_noops() == 0) {
    std::fprintf(stderr,
                 "FAIL: no-op switch path never exercised (writer bug)\n");
    ok = false;
  }
  // Refcount + epoch gating: after the drain, only each model's final
  // active (and a possibly-uninstalled standby) may still be alive.
  if (live > 2 * models) {
    std::fprintf(stderr, "FAIL: %llu versions leaked past the drain\n",
                 static_cast<unsigned long long>(live));
    ok = false;
  }
  // Injection verdict: each injected fault must have been detected as the
  // incident kind it provokes, and nothing may have fired during the clean
  // prefix (true-positive AND zero-false-positive, asserted in-process).
  if (inject.any() && watchdog != nullptr) {
    std::uint64_t spikes = 0, leaks = 0, early = 0;
    for (const rt::incident_record& inc : incidents) {
      if (inc.kind == rt::anomaly_kind::p999_spike) ++spikes;
      if (inc.kind == rt::anomaly_kind::retired_leak) ++leaks;
      // Small slack: the sampler clock starts a beat before the writer's.
      if (inc.t_s < clean_end - 0.1) ++early;
    }
    if (inject.stall && spikes == 0) {
      std::fprintf(stderr,
                   "FAIL: injected stall produced no p999_spike incident\n");
      ok = false;
    }
    // The storm's scheduler-independent signature is reclamation losing to
    // the flip rate (live-version explosion).  An L1 hit-rate collapse only
    // shows on hosts with real parallelism — on a single CPU the writer's
    // flips batch into scheduler quanta and workers repopulate the L1
    // between them — so it is not the asserted kind here.
    if (inject.storm && leaks == 0) {
      std::fprintf(stderr,
                   "FAIL: injected switch storm produced no retired_leak "
                   "incident\n");
      ok = false;
    }
    if (early != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu incident(s) fired during the clean prefix "
                   "(< %.2fs)\n",
                   static_cast<unsigned long long>(early), clean_end);
      ok = false;
    }
    // Bad-switch verdict: the full detect -> classify -> rollback -> recover
    // loop must have closed, in process, within the probation window.
    if (inject.bad) {
      const std::uint64_t bad_gen =
          inject.bad_gen.load(std::memory_order_acquire);
      const std::uint64_t prev_gen =
          inject.bad_prev_gen.load(std::memory_order_acquire);
      if (bad_gen == 0 || prev_gen == 0) {
        std::fprintf(stderr,
                     "FAIL: bad switch never landed (no probation hold)\n");
        ok = false;
      }
      bool classified = false, repromoted = false;
      for (const rt::incident_record& inc : incidents) {
        if (inc.post_switch && inc.suspect_gen == bad_gen) classified = true;
        if (inc.rollback_gen == prev_gen && prev_gen != 0) repromoted = true;
      }
      if (!classified) {
        std::fprintf(stderr,
                     "FAIL: no post_switch_regression incident named the "
                     "degraded gen %llu\n",
                     static_cast<unsigned long long>(bad_gen));
        ok = false;
      }
      if (!repromoted) {
        std::fprintf(stderr,
                     "FAIL: no incident recorded a rollback to the "
                     "pre-switch gen %llu\n",
                     static_cast<unsigned long long>(prev_gen));
        ok = false;
      }
      if (engine->rollbacks() != 1) {
        std::fprintf(stderr, "FAIL: %llu rollbacks (expected exactly 1)\n",
                     static_cast<unsigned long long>(engine->rollbacks()));
        ok = false;
      }
      // The datapath must be serving the re-promoted generation again.
      {
        rt::worker_handle& probe = engine->register_worker();
        std::vector<fp::s64> pin(8, 0), pout(1, 0);
        const rt::route_result pr =
            engine->route(probe, 0xbadf10u, now_seconds(stress_t0), pin, pout);
        if (pr.gen != prev_gen) {
          std::fprintf(stderr,
                       "FAIL: active gen %llu after the run (expected the "
                       "re-promoted gen %llu)\n",
                       static_cast<unsigned long long>(pr.gen),
                       static_cast<unsigned long long>(prev_gen));
          ok = false;
        }
      }
      // Post-rollback p999 must drop back to the clean-prefix level (the
      // regression is ~250x MACs, so "recovered" and "still degraded" are
      // separated by orders of magnitude; 5x + scheduler slack is generous).
      std::vector<double> clean_p999, tail_p999;
      for (const rt::stats_window& w : windows) {
        if (w.samples == 0) continue;
        if (w.t_s < clean_end - 0.1) clean_p999.push_back(w.p999_ns);
      }
      for (auto it = windows.rbegin(); it != windows.rend(); ++it) {
        if (it->samples == 0) continue;
        tail_p999.push_back(it->p999_ns);
        if (tail_p999.size() == 3) break;
      }
      const auto median = [](std::vector<double>& v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };
      if (clean_p999.empty() || tail_p999.empty()) {
        std::fprintf(stderr,
                     "FAIL: not enough sampler windows for the p999 "
                     "recovery check\n");
        ok = false;
      } else {
        const double clean_med = median(clean_p999);
        const double tail_med = median(tail_p999);
        if (tail_med > 5.0 * clean_med + 50e3) {
          std::fprintf(stderr,
                       "FAIL: post-rollback p999 %.0fns never recovered "
                       "(clean prefix median %.0fns)\n",
                       tail_med, clean_med);
          ok = false;
        } else {
          std::printf(
              "bad-switch: detected gen %llu, rolled back to gen %llu, "
              "tail p999 %.0fns vs clean %.0fns\n",
              static_cast<unsigned long long>(bad_gen),
              static_cast<unsigned long long>(prev_gen), tail_med, clean_med);
        }
      }
    }
  }
  if (!ok) {
    // Post-mortem before the nonzero exit: dump the black-box rings (the
    // recorder holds the events leading up to any violation) and a final
    // stats snapshot so CI can archive both.
    if (engine->recorder() != nullptr) {
      const std::string bb = engine->recorder()->dump("rt_engine");
      if (!bb.empty()) std::printf("[blackbox] %s\n", bb.c_str());
    }
    if (sampler != nullptr && sampler->write_text()) {
      std::printf("[stats] %s\n", sampler->config().text_out.c_str());
    }
  }
  std::printf(ok ? "rt stress: PASS\n" : "rt stress: FAIL\n");
  return ok ? 0 : 1;
}

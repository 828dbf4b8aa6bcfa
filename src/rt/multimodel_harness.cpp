// Multi-model serving bench: K logical models behind ONE datapath engine.
//
// The scenario the multi-model refactor exists for: several adaptive models
// (think cc + sched + lb policies, §5) served by the same worker threads,
// one shared epoch domain, one sharded flow cache keyed by (model, flow),
// one switch-epoch counter — while every model runs its own snapshot
// lifecycle with **shadow-scored switching**:
//
//   stage A  bootstrap: install v1, switch.  No incumbent, so the gate has
//            no jurisdiction — the deployment always ships.
//   stage B  drift: install a candidate trained on different data (here: a
//            different random net).  The standby shadow-infers the sampled
//            slice of live routes; its divergence against the active blows
//            the threshold and try_switch() is BLOCKED.  The incumbent
//            keeps serving.
//   stage C  retrain: install a candidate that matches the active's
//            behavior (same weights).  Divergence ~0 over the sampled
//            slice; the gate ADMITS and the switch flips.
//
// Worker threads route continuously across all K models for the whole
// script and assert the §3.4 per-(model, flow) consistency invariant on
// every result.  Every gate ruling is pushed into an adaptation_monitor
// ledger, rendered into REPORT_multimodel.html, and summarized in
// BENCH_multimodel.json.
//
// Exit status is nonzero unless: every model flipped at least twice
// (bootstrap + post-retrain), at least one switch was gate-blocked, at
// least one was admitted after a block, no consistency violation occurred,
// and no version leaked past the drain.
//
// Env knobs (parsed strictly by rt/harness_env.hpp: a malformed or
// out-of-range value exits 2 before any thread starts):
//   LF_MM_MODELS   logical models          (default 3, min 2)
//   LF_MM_WORKERS  router threads          (default 2)
//   LF_MM_FLOWS    flows per worker/model  (default 256)
//   LF_MM_SHADOW   shadow sample rate      (default 0.25)
//   LF_RT_LAT / LF_RT_LAT_SHIFT / LF_RT_BLACKBOX /
//   LF_RT_STATS_INTERVAL_MS / LF_RT_STATS_OUT
//                  live-telemetry knobs, same semantics as the stress
//                  harness (latency and the 100 ms sampler default ON here;
//                  stats text lands in STATS_multimodel.prom), except that
//                  LF_RT_STATS_INTERVAL_MS=0 exits 2: the watchdog and the
//                  stage-D rollback ride the sampler's tick
//   LF_RT_WATCHDOG / LF_RT_WATCHDOG_*
//                  anomaly watchdog knobs (rt/anomaly_watchdog.hpp); fired
//                  incidents land in INCIDENT_multimodel.json and as chart
//                  markers in the HTML report, but never fail this harness —
//                  the scripted lifecycle is the verdict here
//   LF_RT_INJECT_BAD_SWITCH  nonzero: append stage D — switch model 0 to a
//                  degraded (~250x MACs) net *bypassing* the gate, with
//                  probation (LF_RT_PROBATION_WINDOWS, default 100: the
//                  heavy net carries only ~1/K of routes here and the
//                  scripted churn inflates the p999 baseline, so detection
//                  needs more windows than the stress harness) and the
//                  watchdog rollback policy armed.  The verdict then also
//                  requires the post_switch_regression classification and
//                  exactly one auto-rollback re-promoting the pre-switch
//                  gen, and the rolled-back row shows up in the gate table.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "codegen/snapshot.hpp"
#include "core/adaptation_monitor.hpp"
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

double now_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// "Training run" for model m: the seed fully determines the weights, so
/// re-running a seed reproduces the model (stage C's retrain) and a fresh
/// seed drifts it (stage B's bad candidate).
codegen::snapshot train(core::model_key m, std::uint64_t seed,
                        std::uint64_t version) {
  rng g{seed};
  return codegen::generate_snapshot(nn::make_ffnn_flow_size_net(g),
                                    "mm-m" + std::to_string(m), version);
}

/// Stage D's fault: same 8 -> 1 I/O shape but ~250x the MACs (the stress
/// harness's stall net) — a degraded snapshot that "slipped past the gate".
codegen::snapshot make_heavy(std::uint64_t version) {
  const nn::layer_spec layers[] = {{128, nn::activation::relu},
                                   {128, nn::activation::relu},
                                   {1, nn::activation::linear}};
  rng g{0xbeef00};
  nn::mlp net{8, layers, g};
  return codegen::generate_snapshot(net, "mm-bad", version);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

struct worker_outcome {
  std::uint64_t violations = 0;
  std::uint64_t routes = 0;
};

}  // namespace

int main() {
  const std::size_t models = rt::env_size("LF_MM_MODELS", 3, 2, 16);
  const std::size_t workers = rt::env_size("LF_MM_WORKERS", 2, 1, 64);
  const std::size_t flows = rt::env_size("LF_MM_FLOWS", 256, 1, 65536);
  const double shadow_rate = rt::env_double("LF_MM_SHADOW", 0.25, 0.0, 1.0);
  const bool inject_bad = rt::env_flag("LF_RT_INJECT_BAD_SWITCH", false);
  const bool lat_on = rt::env_flag("LF_RT_LAT", true);
  const std::size_t lat_shift = rt::env_size("LF_RT_LAT_SHIFT", 0, 0, 63);
  const std::size_t blackbox =
      rt::env_size("LF_RT_BLACKBOX", 2048, 0, 1 << 24);
  const std::size_t probation_windows =
      rt::env_size("LF_RT_PROBATION_WINDOWS", 100, 1, 1 << 20);
  rt::stats_sampler_config scfg =
      rt::stats_config_from_env(100.0, /*required=*/true);
  rt::watchdog_config wcfg = rt::watchdog_config_from_env();

  rt::engine_config cfg;
  cfg.models = models;
  cfg.max_workers = workers;
  cfg.l1_slots = 64;
  cfg.shadow.sample_rate = shadow_rate;  // gate stays at its defaults
  cfg.telemetry.latency = lat_on;
  cfg.telemetry.latency_sample_shift = static_cast<unsigned>(lat_shift);
  cfg.telemetry.blackbox_events = blackbox;
  // Stage D needs a probation hold to roll back into; clean runs keep
  // probation off so their artifacts stay byte-identical.  100 windows
  // (10 s at the 100 ms default): detection here is slower than in the
  // stress harness because the degraded net carries only ~1/K of routes.
  cfg.probation_windows = inject_bad ? probation_windows : 0;
  auto engine = rt::build_engine(cfg, rt::rt_deployment::multimodel);
  const core::shadow_config& sh = engine->config().shadow;

  metrics::registry reg;
  engine->register_metrics(reg, "rt");
  if (scfg.text_out.empty()) {
    scfg.text_out = bench::output_dir() + "/STATS_multimodel.prom";
  }
  // Watchdog before the sampler: the sampler holds a raw pointer and must
  // die first (it does — reverse declaration order).
  wcfg.incident_label = "multimodel";
  wcfg.auto_rollback = cfg.probation_windows != 0;
  rt::anomaly_watchdog watchdog{wcfg, engine.get()};
  rt::stats_sampler sampler{*engine, scfg};
  sampler.register_metrics(reg, "rt");
  if (watchdog.enabled()) {
    watchdog.register_metrics(reg, "rt.watchdog");
    sampler.attach_watchdog(&watchdog);
  }
  core::monitor_config mon_cfg;
  mon_cfg.enabled = true;
  core::adaptation_monitor mon{mon_cfg};
  // Deployment wiring for incident capture: lifecycle stages the monitor
  // ledgers are mirrored into the engine's control ring, so a black-box dump
  // taken around an anomaly carries the slow-path work that preceded it.
  mon.set_lifecycle_mirror([&engine](trace::lifecycle_phase p, std::uint32_t m,
                                     std::uint64_t version,
                                     std::uint64_t cost_ns) {
    engine->record_lifecycle(p, static_cast<core::model_key>(m), version,
                             cost_ns);
  });

  std::printf(
      "multimodel: %zu models x %zu workers x %zu flows, shadow %.3f "
      "(threshold %.3f, min_samples %llu)\n",
      models, workers, flows, sh.sample_rate, sh.divergence_threshold,
      static_cast<unsigned long long>(sh.min_samples));

  // ---- routers ---------------------------------------------------------
  std::vector<rt::worker_handle*> handles;
  for (std::size_t i = 0; i < workers; ++i) {
    handles.push_back(&engine->register_worker());
  }
  sampler.start();
  std::atomic<bool> stop{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<worker_outcome> outcomes(workers);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < workers; ++i) {
    threads.emplace_back([&, i]() {
      rng g{0xfee1 + i};
      worker_outcome& out = outcomes[i];
      const std::uint64_t flow_base = (i + 1) * 1'000'000ull;
      std::vector<std::uint64_t> expected(models * flows, 0);
      std::vector<fp::s64> input(8);
      std::vector<fp::s64> output(1);
      while (!stop.load(std::memory_order_acquire)) {
        const auto m = static_cast<core::model_key>(
            g.uniform_int(0, static_cast<std::int64_t>(models) - 1));
        const std::size_t idx = static_cast<std::size_t>(
            g.uniform_int(0, static_cast<std::int64_t>(flows) - 1));
        const auto flow = static_cast<netsim::flow_id_t>(flow_base + idx);
        for (auto& x : input) x = g.uniform_int(-900, 900);
        const rt::route_result r =
            engine->route(*handles[i], m, flow, now_seconds(t0), input,
                          output);
        if (r.gen != 0) {
          ++out.routes;
          const std::size_t slot = static_cast<std::size_t>(m) * flows + idx;
          if (r.hit && r.gen != expected[slot]) ++out.violations;
          expected[slot] = r.gen;
        }
      }
    });
  }

  // ---- scripted lifecycles --------------------------------------------
  // Wait until the sampled slice produced enough shadow evidence for one
  // model (bounded; the verdict on timeout simply lacks samples and the
  // stage expectation below fails loudly).
  const auto wait_evidence = [&](core::model_key m) {
    const double deadline = now_seconds(t0) + 10.0;
    while (engine->shadow_evidence(m).samples < sh.min_samples &&
           now_seconds(t0) < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  const auto record_gate = [&](core::model_key m, std::uint64_t version,
                               const rt::switch_outcome& o) {
    core::gate_record rec;
    rec.t = now_seconds(t0);
    rec.logical_model = m;
    rec.candidate = version;  // no nn_manager here: candidate == version
    rec.version = version;
    rec.admitted = o.status == rt::switch_outcome::result::flipped;
    rec.samples = o.verdict.samples;
    rec.mean_divergence = o.verdict.mean_divergence;
    rec.max_divergence = o.verdict.max_divergence;
    mon.on_shadow_gate(rec);
  };
  // Each install is a fresh "training run": its wall cost lands in the
  // control ring as a `train` lifecycle stage directly, and the standby
  // install goes through the adaptation monitor, whose mirror pushes the
  // `install` stage in — both halves of the slow-path evidence a black-box
  // anomaly dump correlates with datapath events.
  const auto install_trained = [&](core::model_key m, std::uint64_t seed,
                                   std::uint64_t version) {
    const auto c0 = std::chrono::steady_clock::now();
    codegen::snapshot snap = train(m, seed, version);
    const auto c1 = std::chrono::steady_clock::now();
    engine->record_lifecycle(
        trace::lifecycle_phase::train, m, version,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(c1 - c0)
                .count()));
    engine->install(m, std::move(snap));
    core::install_observation obs;
    obs.version = version;
    obs.model = version;  // no nn_manager here: model id == version
    obs.logical_model = m;
    obs.initial = version == 1;
    obs.install_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c1)
            .count();
    mon.on_snapshot_install(now_seconds(t0), obs);
  };

  bool script_ok = true;
  std::uint64_t blocked = 0, admitted_after_block = 0;
  const auto expect = [&](bool cond, core::model_key m, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: model %u: %s\n", m, what);
      script_ok = false;
    }
  };
  for (std::size_t mi = 0; mi < models; ++mi) {
    const auto m = static_cast<core::model_key>(mi);
    const std::uint64_t base_seed = 0x5eed0000 + mi;

    // Stage A: bootstrap deployment — no incumbent, gate has no say.
    install_trained(m, base_seed, 1);
    rt::switch_outcome a = engine->try_switch(m);
    expect(a.flipped(), m, "bootstrap switch did not flip");

    // Stage B: drifted candidate — must be blocked on live evidence.
    install_trained(m, base_seed ^ 0xbad0bad0ull, 2);
    wait_evidence(m);
    rt::switch_outcome b = engine->try_switch(m);
    record_gate(m, 2, b);
    expect(b.status == rt::switch_outcome::result::gate_blocked, m,
           "drifted candidate was not gate-blocked");
    expect(b.verdict.mean_divergence > sh.divergence_threshold, m,
           "drifted candidate divergence did not exceed the threshold");
    if (b.status == rt::switch_outcome::result::gate_blocked) ++blocked;

    // Stage C: retrained candidate reproduces the active's behavior — the
    // same evidence pipeline now admits it.
    install_trained(m, base_seed, 3);
    wait_evidence(m);
    rt::switch_outcome c = engine->try_switch(m);
    record_gate(m, 3, c);
    expect(c.flipped(), m, "retrained candidate was not admitted");
    if (c.flipped() && b.status == rt::switch_outcome::result::gate_blocked) {
      ++admitted_after_block;
    }
  }

  // ---- stage D (opt-in): a bad switch past the gate, auto-rolled-back --
  // A degraded net replaces model 0's active *without* consulting the gate
  // (the failure mode §3.3's gate cannot catch: regression only visible
  // under production load).  The probation hold keeps the outgoing version
  // re-promotable; the watchdog classifies the ensuing anomaly as
  // post_switch_regression and re-promotes it from the sampler thread while
  // the workers keep routing.
  std::uint64_t bad_gen = 0, bad_prev_gen = 0;
  bool rolled_back = false;
  if (inject_bad) {
    const auto m = static_cast<core::model_key>(0);
    // Let the watchdog re-settle its baselines after the stage-C churn so
    // the spike attributes to stage D, not to a scripted switch.
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    const auto c0 = std::chrono::steady_clock::now();
    codegen::snapshot snap = make_heavy(4);
    engine->record_lifecycle(
        trace::lifecycle_phase::train, m, 4,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - c0)
                .count()));
    engine->install(m, std::move(snap));
    engine->switch_active(m);  // deliberately bypasses try_switch
    const rt::snapshot_handle::probation_status st = engine->probation(m);
    bad_prev_gen = st.held_gen;
    bad_gen = st.promoted_gen;
    std::printf("stage D: bad switch on model 0 -> gen %llu (hold on %llu)\n",
                static_cast<unsigned long long>(bad_gen),
                static_cast<unsigned long long>(bad_prev_gen));
    // The rollback policy runs on the sampler thread; wait, bounded.
    const double deadline = now_seconds(t0) + 20.0;
    while (engine->rollbacks() == 0 && now_seconds(t0) < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    rolled_back = engine->rollbacks() != 0;
    if (rolled_back) {
      // Mirror the action into the gate ledger the way the sim stack's
      // userspace_service does, so the flight report carries the row.
      core::gate_record rec;
      rec.t = now_seconds(t0);
      rec.logical_model = m;
      rec.candidate = 3;  // stage C's retrained version, re-promoted
      rec.version = 3;
      rec.admitted = true;
      rec.rollback = true;
      mon.on_shadow_gate(rec);
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  sampler.stop();  // final window fold + final stats text snapshot
  const double elapsed = now_seconds(t0);

  // Single-threaded probe of what readers now see on model 0: a flow id no
  // worker ever touched, so the answer comes from the active pointer, not a
  // cache.  Must equal the re-promoted (held) gen after a rollback.
  std::uint64_t post_rollback_gen = 0;
  if (inject_bad) {
    std::vector<fp::s64> probe_in(8, 1);
    std::vector<fp::s64> probe_out(1);
    const rt::route_result pr =
        engine->route(*handles[0], 0, 0xbadf100u, now_seconds(t0), probe_in,
                      probe_out);
    post_rollback_gen = pr.gen;
  }

  // Drain and account.
  engine->cache().clear(engine->snapshots());
  if (inject_bad) engine->close_probation();  // a timed-out hold is not a leak
  engine->maintain();
  engine->epochs().synchronize();
  engine->publish_stats();

  std::uint64_t violations = 0, routes = 0;
  for (const worker_outcome& o : outcomes) {
    violations += o.violations;
    routes += o.routes;
  }
  const std::uint64_t live = engine->versions_live();
  std::uint64_t min_model_switches = ~0ull;
  for (std::size_t mi = 0; mi < models; ++mi) {
    min_model_switches = std::min(
        min_model_switches,
        engine->snapshots(static_cast<core::model_key>(mi)).switches());
  }
  std::printf(
      "total: %.0f routes/s, %llu switches (min %llu per model), %llu "
      "gate-blocked, %llu admitted after block, %llu shadow inferences, "
      "%llu live after drain, %llu violations\n",
      routes / elapsed, static_cast<unsigned long long>(engine->switches()),
      static_cast<unsigned long long>(min_model_switches),
      static_cast<unsigned long long>(blocked),
      static_cast<unsigned long long>(admitted_after_block),
      static_cast<unsigned long long>(engine->shadow_inferences()),
      static_cast<unsigned long long>(live),
      static_cast<unsigned long long>(violations));

  // ---- BENCH_multimodel.json ------------------------------------------
  bench::report rep{"multimodel",
                    "K models behind one engine, shadow-gated switching"};
  rep.config("models", static_cast<double>(models));
  rep.config("workers", static_cast<double>(workers));
  rep.config("flows_per_worker_model", static_cast<double>(flows));
  rep.config("shadow_sample_rate", sh.sample_rate);
  rep.config("divergence_threshold", sh.divergence_threshold);
  rep.config("min_samples", static_cast<double>(sh.min_samples));
  rep.config("duration_seconds", elapsed);
  rep.summary("routes_per_sec", routes / elapsed);
  rep.summary("switches", static_cast<double>(engine->switches()));
  rep.summary("min_switches_per_model",
              static_cast<double>(min_model_switches));
  rep.summary("gate_blocks", static_cast<double>(blocked));
  rep.summary("admitted_after_block",
              static_cast<double>(admitted_after_block));
  rep.summary("shadow_inferences",
              static_cast<double>(engine->shadow_inferences()));
  rep.summary("violations", static_cast<double>(violations));
  rep.summary("versions_live_after_drain", static_cast<double>(live));
  if (inject_bad) {
    rep.config("probation_windows", static_cast<double>(cfg.probation_windows));
    rep.summary("rollbacks", static_cast<double>(engine->rollbacks()));
    rep.summary("bad_switch_gen", static_cast<double>(bad_gen));
    rep.summary("bad_switch_prev_gen", static_cast<double>(bad_prev_gen));
  }
  for (std::size_t mi = 0; mi < models; ++mi) {
    const auto m = static_cast<core::model_key>(mi);
    rep.add_point("per_model_switches", static_cast<double>(mi),
                  static_cast<double>(engine->snapshots(m).switches()));
  }
  for (const core::gate_record& g : mon.gates()) {
    rep.add_point("gate_mean_divergence", static_cast<double>(g.logical_model),
                  g.mean_divergence);
  }

  // ---- live telemetry: whole-run percentiles + per-window time series --
  rt::latency_snapshot lat;
  engine->latency_snapshot_into(lat);
  if (lat.total() != 0) {
    rep.summary("latency_samples", static_cast<double>(lat.total()));
    rep.summary("latency_p50_ns", lat.quantile(0.50));
    rep.summary("latency_p99_ns", lat.quantile(0.99));
    rep.summary("latency_p999_ns", lat.quantile(0.999));
  }
  const std::vector<rt::stats_window> windows = sampler.windows();
  for (const rt::stats_window& w : windows) {
    rep.add_point("ts_routes_per_sec", w.t_s, w.routes_per_sec);
    if (w.samples != 0) {
      rep.add_point("ts_p50_ns", w.t_s, w.p50_ns);
      rep.add_point("ts_p99_ns", w.t_s, w.p99_ns);
      rep.add_point("ts_p999_ns", w.t_s, w.p999_ns);
    }
  }
  if (!windows.empty()) {
    rep.summary("stats_windows", static_cast<double>(windows.size()));
  }

  for (const auto& [name, value] : reg.scalars()) rep.summary(name, value);
  const std::string path = rep.write();
  if (!path.empty()) std::printf("[json] %s\n", path.c_str());

  // Watchdog incidents are advisory here (the scripted lifecycle is the
  // verdict) but still published for the record.
  const std::vector<rt::incident_record> incidents = watchdog.incidents();
  const std::string incident_path = watchdog.write_incidents();
  if (!incident_path.empty()) {
    std::printf("[incidents] %s\n", incident_path.c_str());
  }

  // ---- REPORT_multimodel.html -----------------------------------------
  report::flight_report fr;
  fr.title = "LiteFlow flight report: multimodel";
  fr.summary.emplace_back("models", std::to_string(models));
  fr.summary.emplace_back("workers", std::to_string(workers));
  fr.summary.emplace_back("switches",
                          std::to_string(engine->switches()));
  fr.summary.emplace_back("gate blocked", std::to_string(blocked));
  fr.summary.emplace_back("admitted after block",
                          std::to_string(admitted_after_block));
  fr.summary.emplace_back("violations", std::to_string(violations));
  fr.summary.emplace_back("watchdog incidents",
                          std::to_string(incidents.size()));
  if (!windows.empty()) {
    report::chart_data tele;
    tele.id = "telemetry";
    tele.title = "Routes/s and p99 route latency (per sampler window)";
    tele.y_label = "routes/s | ns";
    report::series_data rps_series{"routes/s", {}};
    report::series_data p99_series{"p99 ns", {}};
    for (const rt::stats_window& w : windows) {
      rps_series.points.emplace_back(w.t_s, w.routes_per_sec);
      if (w.samples != 0) p99_series.points.emplace_back(w.t_s, w.p99_ns);
    }
    tele.series.push_back(std::move(rps_series));
    tele.series.push_back(std::move(p99_series));
    // Gate rulings as chart markers: the latency timeline shows whether a
    // blocked or admitted switch perturbed the datapath.
    for (const core::gate_record& g : mon.gates()) {
      tele.markers.push_back(
          {g.t,
           std::string{g.rollback    ? "rollback m"
                       : g.admitted ? "admit m"
                                    : "block m"} +
               std::to_string(g.logical_model),
           !g.admitted || g.rollback});
    }
    for (const report::marker& mk : watchdog.incident_markers()) {
      tele.markers.push_back(mk);
    }
    fr.charts.push_back(std::move(tele));
  }
  if (!incidents.empty()) fr.tables.push_back(watchdog.incidents_table());
  report::table_data gates;
  gates.id = "gates";
  gates.title = "Shadow gate decisions";
  gates.caption =
      "Each row is one switch_active that went through the shadow "
      "divergence gate.  A rolled-back row is a gate-aware rollback: the "
      "previous active re-promoted out of its probation hold.";
  gates.columns = {"t (s)",   "domain model", "candidate", "version",
                   "outcome", "samples",      "mean div",  "max div"};
  for (const core::gate_record& g : mon.gates()) {
    gates.rows.push_back(
        {num(g.t), std::to_string(g.logical_model),
         std::to_string(g.candidate), std::to_string(g.version),
         g.rollback ? "rolled-back" : g.admitted ? "admitted" : "blocked",
         std::to_string(g.samples), num(g.mean_divergence),
         num(g.max_divergence)});
    gates.row_classes.push_back(g.rollback    ? "gate-rollback"
                                : g.admitted ? "gate-admitted"
                                             : "gate-blocked");
  }
  fr.tables.push_back(std::move(gates));
  const std::string report_path = report::write_flight_report(fr, "multimodel");
  if (!report_path.empty()) std::printf("[html] %s\n", report_path.c_str());

  // ---- verdict ---------------------------------------------------------
  bool ok = script_ok;
  if (routes == 0) {
    std::fprintf(stderr, "FAIL: workers routed nothing (%zu workers)\n",
                 workers);
    ok = false;
  }
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: %llu consistency violations\n",
                 static_cast<unsigned long long>(violations));
    ok = false;
  }
  if (min_model_switches < 2) {
    std::fprintf(stderr, "FAIL: a model switched fewer than 2 times\n");
    ok = false;
  }
  if (blocked == 0 || admitted_after_block == 0) {
    std::fprintf(stderr, "FAIL: gate never blocked / never re-admitted\n");
    ok = false;
  }
  if (live > 2 * models) {
    std::fprintf(stderr, "FAIL: %llu versions leaked past the drain\n",
                 static_cast<unsigned long long>(live));
    ok = false;
  }
  if (inject_bad) {
    if (bad_gen == 0 || bad_prev_gen == 0) {
      std::fprintf(stderr,
                   "FAIL: stage D did not open a probation hold "
                   "(gen %llu, prev %llu)\n",
                   static_cast<unsigned long long>(bad_gen),
                   static_cast<unsigned long long>(bad_prev_gen));
      ok = false;
    }
    if (!rolled_back) {
      std::fprintf(stderr,
                   "FAIL: stage D regression was never auto-rolled-back\n");
      ok = false;
    }
    if (engine->rollbacks() != 1) {
      std::fprintf(stderr, "FAIL: expected exactly 1 rollback, saw %llu\n",
                   static_cast<unsigned long long>(engine->rollbacks()));
      ok = false;
    }
    bool classified = false, rb_recorded = false;
    for (const rt::incident_record& ir : incidents) {
      if (ir.post_switch && ir.suspect_gen == bad_gen) classified = true;
      if (ir.rollback_gen != 0 && ir.rollback_gen == bad_prev_gen) {
        rb_recorded = true;
      }
    }
    if (!classified) {
      std::fprintf(stderr,
                   "FAIL: no incident classed post_switch_regression with "
                   "suspect gen %llu\n",
                   static_cast<unsigned long long>(bad_gen));
      ok = false;
    }
    if (!rb_recorded) {
      std::fprintf(stderr,
                   "FAIL: no incident recorded rollback to gen %llu\n",
                   static_cast<unsigned long long>(bad_prev_gen));
      ok = false;
    }
    if (post_rollback_gen != bad_prev_gen) {
      std::fprintf(stderr,
                   "FAIL: readers see gen %llu after rollback, want %llu\n",
                   static_cast<unsigned long long>(post_rollback_gen),
                   static_cast<unsigned long long>(bad_prev_gen));
      ok = false;
    }
    if (ok) {
      std::printf(
          "stage D: regression gen %llu classified and rolled back to gen "
          "%llu\n",
          static_cast<unsigned long long>(bad_gen),
          static_cast<unsigned long long>(bad_prev_gen));
    }
  }
  if (!ok) {
    // Post-mortem before the nonzero exit (same contract as the stress
    // harness): black-box dump + final stats snapshot for CI to archive.
    if (engine->recorder() != nullptr) {
      const std::string bb = engine->recorder()->dump("multimodel");
      if (!bb.empty()) std::printf("[blackbox] %s\n", bb.c_str());
    }
    if (sampler.write_text()) {
      std::printf("[stats] %s\n", sampler.config().text_out.c_str());
    }
  }
  std::printf(ok ? "multimodel: PASS\n" : "multimodel: FAIL\n");
  return ok ? 0 : 1;
}

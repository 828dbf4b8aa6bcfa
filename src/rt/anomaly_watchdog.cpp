#include "rt/anomaly_watchdog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "rt/harness_env.hpp"
#include "util/bench_report.hpp"

namespace lf::rt {

std::string_view to_string(anomaly_kind k) noexcept {
  switch (k) {
    case anomaly_kind::p999_spike: return "p999_spike";
    case anomaly_kind::rps_collapse: return "rps_collapse";
    case anomaly_kind::l1_collapse: return "l1_collapse";
    case anomaly_kind::locks_spike: return "locks_spike";
    case anomaly_kind::shadow_drift: return "shadow_drift";
    case anomaly_kind::retired_leak: return "retired_leak";
  }
  return "unknown";
}

watchdog_config watchdog_config_from_env() {
  watchdog_config cfg;
  cfg.enabled = env_flag("LF_RT_WATCHDOG", cfg.enabled);
  cfg.warmup_windows =
      env_size("LF_RT_WATCHDOG_WARMUP", cfg.warmup_windows, 1, 1'000'000);
  cfg.breach_windows =
      env_size("LF_RT_WATCHDOG_BREACH", cfg.breach_windows, 1, 1'000'000);
  cfg.min_window_routes = env_size("LF_RT_WATCHDOG_MIN_ROUTES",
                                   cfg.min_window_routes, 1, 1'000'000'000);
  cfg.p999_spike_factor = env_double("LF_RT_WATCHDOG_P999_FACTOR",
                                     cfg.p999_spike_factor, 1.0, 1000.0);
  return cfg;
}

anomaly_watchdog::anomaly_watchdog(watchdog_config cfg,
                                   datapath_engine* engine)
    : cfg_{std::move(cfg)}, engine_{engine} {}

std::size_t anomaly_watchdog::rearm_windows(anomaly_kind k) const noexcept {
  return k == anomaly_kind::retired_leak
             ? std::max<std::size_t>(1, cfg_.retired_leak_rearm)
             : 1;
}

double anomaly_watchdog::envelope(anomaly_kind k,
                                  const baseline_stats& b) const {
  switch (k) {
    case anomaly_kind::p999_spike:
      return std::max(b.mean * cfg_.p999_spike_factor,
                      b.mean + cfg_.mad_slack * b.mad) +
             cfg_.p999_spike_min_ns;
    case anomaly_kind::rps_collapse:
      return b.mean * cfg_.rps_collapse_frac;
    case anomaly_kind::l1_collapse:
      return b.mean * cfg_.l1_collapse_frac;
    case anomaly_kind::locks_spike:
      return std::max({b.mean * cfg_.locks_spike_factor,
                       b.mean + cfg_.mad_slack * b.mad,
                       cfg_.locks_spike_min});
    case anomaly_kind::shadow_drift:
      return std::max({b.mean * cfg_.shadow_drift_factor,
                       b.mean + cfg_.mad_slack * b.mad,
                       cfg_.shadow_drift_min});
    case anomaly_kind::retired_leak:
      // No MAD term, deliberately.  Mid-storm the live count whipsaws
      // (reclaim wins a window, drops it 3x, loses the next) — if one such
      // dip lands inside the envelope it folds, and a MAD fed a deviation
      // that large inflates the envelope above the storm plateau itself,
      // turning every later storm window "clean".  The live count is
      // low-jitter in steady state, so the pure-factor envelope loses
      // nothing the MAD term was protecting.
      return b.mean * cfg_.retired_leak_factor + cfg_.retired_leak_min;
  }
  return 0.0;
}

void anomaly_watchdog::evaluate(anomaly_kind k, const stats_window& w,
                                double v) {
  rule_state& r = rules_[static_cast<std::size_t>(k)];
  const bool warm = r.base.samples >= cfg_.warmup_windows;
  bool breach = false;
  double thr = 0.0;
  if (warm) {
    thr = envelope(k, r.base);
    switch (k) {
      case anomaly_kind::rps_collapse:
        breach = r.base.mean > 0.0 && v < thr;
        break;
      case anomaly_kind::l1_collapse:
        breach = r.base.mean >= cfg_.l1_min_baseline && v < thr;
        break;
      default:
        breach = v > thr;
    }
  }
  if (!breach) {
    // Clean (or warmup) window.  While a breach run is open the window is
    // only provisionally clean: until rearm_windows(k) consecutive clean
    // windows close the run, it is a suspicious period — the value is not
    // folded (it may be a storm-level "dip" that would teach the baseline
    // the anomaly is normal) and the breach count survives.
    if (r.breach_run > 0 && r.clean_run + 1 < rearm_windows(k)) {
      ++r.clean_run;
      return;
    }
    // Genuinely clean: fold into the baseline and re-arm.
    if (r.base.samples == 0) {
      r.base.mean = v;
      r.base.mad = 0.0;
    } else {
      const double dev = std::abs(v - r.base.mean);
      r.base.mean += cfg_.ewma_alpha * (v - r.base.mean);
      r.base.mad += cfg_.ewma_alpha * (dev - r.base.mad);
    }
    ++r.base.samples;
    r.breach_run = 0;
    r.clean_run = 0;
    r.latched = false;
    return;
  }
  // Breaching window: never folded into the baseline.
  r.clean_run = 0;
  if (r.breach_run == 0) r.first_breach_t = w.t_s;
  ++r.breach_run;
  if (r.breach_run >= cfg_.breach_windows && !r.latched) {
    r.latched = true;  // edge trigger: one incident per excursion
    fire(k, w, v, thr, r);
  }
}

void anomaly_watchdog::observe(const stats_window& w,
                               double max_shadow_divergence) {
  if (!cfg_.enabled) return;
  std::lock_guard<std::mutex> g{mu_};
  ++windows_seen_;

  // retired_leak is a control-plane rule, watched on every window (an idle
  // datapath can still leak versions).  The watched series is the *live*
  // version count — the cumulative retired counter grows on every healthy
  // switch — and the signal is its level, not its slope: a storm that
  // outruns reclamation does not grow it monotonically (reclaim wins
  // individual windows mid-storm) but holds it an order of magnitude above
  // the steady churn baseline, which the EWMA tracks through slow creep
  // without alerting.
  evaluate(anomaly_kind::retired_leak, w,
           static_cast<double>(w.versions_live));

  // Traffic rules only see windows with enough routes to mean anything:
  // idle phases and the short tail window after the workers join would
  // otherwise read as throughput collapses.
  if (w.routes < cfg_.min_window_routes) return;

  if (w.samples != 0) evaluate(anomaly_kind::p999_spike, w, w.p999_ns);
  evaluate(anomaly_kind::rps_collapse, w, w.routes_per_sec);
  evaluate(anomaly_kind::l1_collapse, w, w.l1_hit_rate);
  evaluate(anomaly_kind::locks_spike, w, w.locks_per_route);
  if (max_shadow_divergence > 0.0) {
    evaluate(anomaly_kind::shadow_drift, w, max_shadow_divergence);
  }
}

bool anomaly_watchdog::classifiable(anomaly_kind k) noexcept {
  // The datapath symptoms a freshly admitted bad candidate produces: slower
  // inference (p999), output drift vs. the next standby (shadow), and a
  // throughput collapse from the heavier program.  The control-plane rules
  // (retired_leak) and the cache-shape rules (l1_collapse, locks_spike) say
  // nothing about the candidate itself.
  return k == anomaly_kind::p999_spike || k == anomaly_kind::shadow_drift ||
         k == anomaly_kind::rps_collapse;
}

void anomaly_watchdog::fire(anomaly_kind k, const stats_window& w,
                            double observed, double threshold,
                            rule_state& r) {
  incident_record inc;
  inc.seq = incidents_.size() + 1;
  inc.t_s = w.t_s;
  inc.kind = k;
  inc.observed = observed;
  inc.baseline = r.base.mean;
  inc.threshold = threshold;
  inc.breach_windows = r.breach_run;
  inc.first_breach_t_s = r.first_breach_t;
  inc.window = w;
  if (engine_ != nullptr) {
    const datapath_engine::live_counters c = engine_->counters_now();
    inc.versions_live = c.versions_live;
    inc.versions_retired = c.versions_retired;
    inc.switches = c.switches;
    inc.installs = c.installs;
    inc.gate_blocks = c.gate_blocks;
    if (flight_recorder* rec = engine_->recorder()) {
      // The trigger goes into the control ring BEFORE the rollback and the
      // dump, so the dump reads causally: anomaly, then the
      // snapshot_rollback the policy issued for it.
      rec->control().emit(
          trace::event_type::anomaly, static_cast<std::uint64_t>(k),
          static_cast<std::uint64_t>(std::max(0.0, observed) * 1e3));
    }
    // Cross-rule correlation: a datapath symptom while a switch's probation
    // hold is still open names the admitted candidate as the suspect.
    if (classifiable(k)) {
      for (std::size_t m = 0; m < engine_->model_count(); ++m) {
        const snapshot_handle::probation_status st =
            engine_->probation(static_cast<core::model_key>(m));
        if (!st.open) continue;
        inc.post_switch = true;
        inc.suspect_model = m;
        inc.suspect_gen = st.promoted_gen;
        post_switch_.inc();
        // The rollback policy: detect -> act, still on the sampler thread.
        if (cfg_.auto_rollback &&
            engine_->try_rollback(static_cast<core::model_key>(m))) {
          inc.rollback_gen = st.held_gen;
          rollbacks_issued_.inc();
        }
        break;  // one suspect per incident; N simultaneous holds are a
                // switch storm, not a classifiable regression
      }
    }
    if (flight_recorder* rec = engine_->recorder()) {
      inc.dump_path = rec->try_dump("anomaly", cfg_.dump_window_ns);
      dumps_gauge_.set(static_cast<double>(rec->dumps()));
      dumps_suppressed_gauge_.set(
          static_cast<double>(rec->dumps_suppressed()));
    }
  }
  incidents_total_.inc();
  per_kind_[static_cast<std::size_t>(k)].inc();
  std::fprintf(stderr,
               "[watchdog] incident %llu: %s at t=%.3fs observed=%.4g "
               "baseline=%.4g threshold=%.4g (%zu windows)%s%s\n",
               static_cast<unsigned long long>(inc.seq),
               std::string{to_string(k)}.c_str(), inc.t_s, inc.observed,
               inc.baseline, inc.threshold, inc.breach_windows,
               inc.dump_path.empty() ? "" : " dump=",
               inc.dump_path.c_str());
  incidents_.push_back(std::move(inc));
  write_incidents_locked();
}

std::vector<incident_record> anomaly_watchdog::incidents() const {
  std::lock_guard<std::mutex> g{mu_};
  return incidents_;
}

std::uint64_t anomaly_watchdog::incident_count() const {
  std::lock_guard<std::mutex> g{mu_};
  return incidents_.size();
}

std::uint64_t anomaly_watchdog::incident_count(anomaly_kind k) const {
  std::lock_guard<std::mutex> g{mu_};
  return per_kind_[static_cast<std::size_t>(k)].value();
}

std::uint64_t anomaly_watchdog::post_switch_incidents() const {
  std::lock_guard<std::mutex> g{mu_};
  return post_switch_.value();
}

std::uint64_t anomaly_watchdog::rollbacks_issued() const {
  std::lock_guard<std::mutex> g{mu_};
  return rollbacks_issued_.value();
}

baseline_stats anomaly_watchdog::baseline(anomaly_kind k) const {
  std::lock_guard<std::mutex> g{mu_};
  return rules_[static_cast<std::size_t>(k)].base;
}

std::size_t anomaly_watchdog::windows_seen() const {
  std::lock_guard<std::mutex> g{mu_};
  return windows_seen_;
}

std::uint64_t anomaly_watchdog::dumps() const noexcept {
  if (engine_ == nullptr || engine_->recorder() == nullptr) return 0;
  return engine_->recorder()->dumps();
}

std::uint64_t anomaly_watchdog::dumps_suppressed() const noexcept {
  if (engine_ == nullptr || engine_->recorder() == nullptr) return 0;
  return engine_->recorder()->dumps_suppressed();
}

void anomaly_watchdog::register_metrics(metrics::registry& reg,
                                        const std::string& prefix) {
  reg.register_counter(prefix + ".incidents", incidents_total_);
  for (std::size_t k = 0; k < anomaly_kind_count; ++k) {
    reg.register_counter(
        prefix + "." +
            std::string{to_string(static_cast<anomaly_kind>(k))},
        per_kind_[k]);
  }
  reg.register_gauge(prefix + ".dumps", dumps_gauge_);
  reg.register_gauge(prefix + ".dumps_suppressed", dumps_suppressed_gauge_);
  if (engine_ != nullptr && engine_->config().probation_windows != 0) {
    // The classifier and the rollback policy only exist while probation
    // holds can open; registering their counters conditionally keeps the
    // probation-less clean-run artifacts' key set byte-identical.
    reg.register_counter(prefix + ".post_switch_regressions", post_switch_);
    reg.register_counter(prefix + ".rollbacks_issued", rollbacks_issued_);
  }
}

namespace {

void append_window_json(std::ostringstream& os, const stats_window& w) {
  using bench::json_number;
  os << "{\"t_s\":" << json_number(w.t_s) << ",\"dt_s\":"
     << json_number(w.dt_s) << ",\"routes\":" << w.routes
     << ",\"routes_per_sec\":" << json_number(w.routes_per_sec)
     << ",\"samples\":" << w.samples << ",\"p50_ns\":"
     << json_number(w.p50_ns) << ",\"p99_ns\":" << json_number(w.p99_ns)
     << ",\"p999_ns\":" << json_number(w.p999_ns) << ",\"l1_hit_rate\":"
     << json_number(w.l1_hit_rate) << ",\"locks_per_route\":"
     << json_number(w.locks_per_route) << ",\"versions_live\":"
     << w.versions_live << ",\"versions_retired\":" << w.versions_retired
     << "}";
}

}  // namespace

std::string anomaly_watchdog::write_incidents_locked() const {
  if (cfg_.incident_label.empty() || incidents_.empty()) return {};
  using bench::json_escape;
  using bench::json_number;
  std::ostringstream os;
  os << "{\n  \"label\": \"" << json_escape(cfg_.incident_label)
     << "\",\n  \"incidents\": [";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const incident_record& inc = incidents_[i];
    os << (i ? "," : "") << "\n    {\"seq\":" << inc.seq << ",\"t_s\":"
       << json_number(inc.t_s) << ",\"rule\":\"" << to_string(inc.kind)
       << "\",\"observed\":" << json_number(inc.observed) << ",\"baseline\":"
       << json_number(inc.baseline) << ",\"threshold\":"
       << json_number(inc.threshold) << ",\"breach_windows\":"
       << inc.breach_windows << ",\"first_breach_t_s\":"
       << json_number(inc.first_breach_t_s) << ",\"dump\":\""
       << json_escape(inc.dump_path) << "\",\"versions_live\":"
       << inc.versions_live << ",\"versions_retired\":"
       << inc.versions_retired << ",\"switches\":" << inc.switches
       << ",\"installs\":" << inc.installs << ",\"gate_blocks\":"
       << inc.gate_blocks;
    if (inc.post_switch) {
      // Appended only for classified incidents, so the non-probation legs'
      // incident files keep their historical shape byte-for-byte.
      os << ",\"class\":\"post_switch_regression\",\"suspect_model\":"
         << inc.suspect_model << ",\"suspect_gen\":" << inc.suspect_gen
         << ",\"rollback_gen\":" << inc.rollback_gen;
    }
    os << ",\"window\":";
    append_window_json(os, inc.window);
    os << "}";
  }
  os << "\n  ]\n}\n";

  const std::string path =
      bench::output_dir() + "/INCIDENT_" + cfg_.incident_label + ".json";
  // Same publication contract as the sampler's text exposition: a reader
  // (CI's python assert, a tail -f) must never see a torn file, so write a
  // sibling temp file and rename over the target.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f{tmp, std::ios::trunc};
    if (!f) {
      std::fprintf(stderr, "watchdog: cannot open %s for writing\n",
                   tmp.c_str());
      return {};
    }
    f << os.str();
    if (!f) {
      std::fprintf(stderr, "watchdog: write to %s failed\n", tmp.c_str());
      return {};
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "watchdog: rename %s -> %s failed\n", tmp.c_str(),
                 path.c_str());
    return {};
  }
  return path;
}

std::string anomaly_watchdog::write_incidents() const {
  std::lock_guard<std::mutex> g{mu_};
  return write_incidents_locked();
}

namespace {

std::string num4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

report::table_data anomaly_watchdog::incidents_table() const {
  std::lock_guard<std::mutex> g{mu_};
  report::table_data t;
  t.id = "incidents";
  t.title = "Watchdog incidents";
  t.caption =
      "Each row is one edge-triggered anomaly: the rule, the observation "
      "that completed the k-of-M breach run, the rolling baseline it was "
      "judged against, and the black-box dump captured at trigger time.";
  t.columns = {"t (s)",     "rule",     "observed", "baseline",
               "threshold", "windows",  "dump"};
  for (const incident_record& inc : incidents_) {
    std::string rule{to_string(inc.kind)};
    if (inc.post_switch) {
      rule += " [post-switch gen " + std::to_string(inc.suspect_gen);
      if (inc.rollback_gen != 0) {
        rule += " → rolled back to gen " + std::to_string(inc.rollback_gen);
      }
      rule += "]";
    }
    t.rows.push_back({num4(inc.t_s), std::move(rule), num4(inc.observed),
                      num4(inc.baseline), num4(inc.threshold),
                      std::to_string(inc.breach_windows),
                      inc.dump_path.empty() ? "(suppressed)"
                                            : inc.dump_path});
    t.row_classes.push_back("incident");
  }
  return t;
}

std::vector<report::marker> anomaly_watchdog::incident_markers() const {
  std::lock_guard<std::mutex> g{mu_};
  std::vector<report::marker> out;
  out.reserve(incidents_.size());
  for (const incident_record& inc : incidents_) {
    out.push_back({inc.t_s, std::string{to_string(inc.kind)}, true});
  }
  return out;
}

}  // namespace lf::rt

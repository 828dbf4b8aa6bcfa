// Anomaly watchdog for the rt engine: rolling-baseline detection of
// transient datapath regressions, evaluated entirely on the stats-sampler
// thread.
//
// The failure modes that matter in production are transient — a p999 spike
// during a switch storm, a routes/sec collapse under cache pressure, an L1
// hit-rate cliff after an install flood, shadow-divergence drift after an
// admit, a retired-version leak — and they are invisible in end-of-run
// aggregates.  The watchdog rides the windows the stats sampler already
// folds (no new hot-path instrumentation: workers pay nothing they did not
// already pay for telemetry) and keeps one rolling baseline per watched
// series:
//
//   baseline: EWMA mean + EWMA mean-absolute-deviation (MAD), warmup-gated.
//     mean' = mean + alpha * (v - mean)
//     mad'  = mad  + alpha * (|v - mean| - mad)
//   Breaching windows are NOT folded into the baseline (an anomaly must not
//   teach the detector that anomalous is normal); recovery windows are.
//
//   trigger: edge-triggered k-of-M — a rule fires only after
//   `breach_windows` consecutive breaching windows, fires once, and re-arms
//   when a window comes back inside the envelope (the adaptation_monitor's
//   alert semantics, applied to the rt plane).  retired_leak alone needs
//   several consecutive clean windows to re-arm (retired_leak_rearm):
//   reclamation wins isolated windows mid-storm, and those dips must not
//   reset the count or fold into the baseline.
//
// On fire the watchdog emits a typed `anomaly` event into the flight
// recorder's control ring, triggers a rate-limited black-box dump
// (BLACKBOX_anomaly_<n>.json via flight_recorder::try_dump), bumps the
// rt.watchdog.* metrics, and appends a structured incident record — rule,
// observed/baseline/threshold, the breaching window, control-plane context
// (live/retired versions, switches, installs, gate blocks), dump path — to
// INCIDENT_<label>.json (rewritten atomically, absent while no incident has
// fired so a clean run leaves no file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rt/engine.hpp"
#include "rt/stats_sampler.hpp"
#include "util/metrics.hpp"
#include "util/run_report.hpp"

namespace lf::rt {

/// What breached.  Order is the trace `anomaly` event's `a` payload and the
/// rt.watchdog.<kind> metric suffix — append-only.
enum class anomaly_kind : std::uint8_t {
  p999_spike = 0,   ///< window p999 above the baseline envelope
  rps_collapse,     ///< routes/sec collapsed below a fraction of baseline
  l1_collapse,      ///< L1 hit rate collapsed below a fraction of baseline
  locks_spike,      ///< locks/route above the baseline envelope
  shadow_drift,     ///< per-model shadow divergence above the envelope
  retired_leak,     ///< live version count far above its rolling baseline
                    ///< (retired snapshots piling up un-reclaimed: the
                    ///< cumulative retired counter grows on every healthy
                    ///< switch, but the *live* count stays near the steady
                    ///< churn level unless reclamation is losing to the
                    ///< switch rate)
};

inline constexpr std::size_t anomaly_kind_count = 6;

std::string_view to_string(anomaly_kind k) noexcept;

struct watchdog_config {
  bool enabled = true;
  /// Windows a rule's baseline must absorb before it may breach.  During
  /// warmup every window (spike or not) feeds the baseline and nothing
  /// fires — a cold start must not alert on its own ramp.
  std::size_t warmup_windows = 5;
  /// Windows with fewer routes than this are skipped outright (no baseline
  /// update, no breach evaluation): idle phases and the short tail window
  /// after workers join carry no signal, only noise.
  std::size_t min_window_routes = 64;
  /// EWMA smoothing for both the mean and the MAD.
  double ewma_alpha = 0.25;
  /// Consecutive breaching windows required to fire (the M in k-of-M).
  /// 3 is deliberate: on a loaded single-CPU host, two back-to-back
  /// scheduler-stall p999 spikes show up in genuinely clean runs.
  std::size_t breach_windows = 3;

  // Per-rule envelopes.  High-side rules breach above
  //   max(mean * factor, mean + mad_slack * mad) + abs_min
  // (the MAD term keeps a noisy-but-legitimate series from alerting on its
  // own jitter); low-side rules breach below mean * frac.
  double mad_slack = 8.0;
  double p999_spike_factor = 4.0;
  double p999_spike_min_ns = 250.0;
  double rps_collapse_frac = 0.25;
  double l1_collapse_frac = 0.5;
  /// l1_collapse only applies when the baseline says the L1 was actually
  /// absorbing traffic (an L1-disabled run has nothing to collapse).
  double l1_min_baseline = 0.2;
  double locks_spike_factor = 8.0;
  double locks_spike_min = 0.05;
  double shadow_drift_factor = 4.0;
  double shadow_drift_min = 1e-3;
  /// retired_leak breaches when versions_live exceeds
  ///   mean * factor + retired_leak_min.
  /// A *level* envelope, deliberately not a growth trend: a switch storm
  /// that outruns reclamation does not grow the live count monotonically —
  /// reclaim wins individual windows mid-storm — but it does hold the level
  /// an order of magnitude above the steady churn baseline (which the EWMA
  /// tracks through slow creep without alerting).  The absolute floor keeps
  /// small deployments (baseline of a handful of versions) from alerting on
  /// trivial counts.  4x (not the p999 rule's tighter envelope): the live
  /// count legitimately swings 2-3x while reclamation absorbs a recovery
  /// (e.g. a heavy model draining out), and a real reclamation loss sits an
  /// order of magnitude up.  Unlike the other high-side rules there is no
  /// mad_slack term: the series is low-jitter when healthy, and mid-storm
  /// reclaim-win dips that fold as "clean" would feed the MAD deviations
  /// large enough to balloon the envelope above the storm plateau itself.
  double retired_leak_factor = 4.0;
  double retired_leak_min = 64.0;
  /// Consecutive clean windows required to close a retired_leak breach run
  /// (re-arm the trigger and resume folding the baseline).  Every other
  /// rule re-arms on a single clean window; here reclamation wins single
  /// windows *mid-storm* — the live count whipsaws 3x and back while the
  /// leak rages — so one clean window proves nothing.  While a breach run
  /// is open, clean windows below this count are a suspicious period: they
  /// neither fold into the baseline (a storm-level "dip" of 300 against a
  /// baseline of 100 would teach the EWMA that the storm is normal) nor
  /// reset the breach count (the k-of-M run survives isolated dips).
  std::size_t retired_leak_rearm = 3;

  /// Trailing window kept in anomaly dumps (0 = whole rings).
  std::uint64_t dump_window_ns = 0;
  /// INCIDENT_<label>.json basename; "" disables the incident file.
  std::string incident_label;
  /// Rollback policy: when a firing rule is classified
  /// `post_switch_regression` (see incident_record), invoke
  /// engine::try_rollback on the offending model from the sampler thread.
  /// Off by default — the watchdog stays a pure observer unless the
  /// deployment opted into probation holds.
  bool auto_rollback = false;
};

/// Environment defaults, all optional, parsed strictly by
/// rt/harness_env.hpp (a malformed or out-of-range value exits 2 naming the
/// variable, so only a harness main() should call this):
///   LF_RT_WATCHDOG          0 disables, 1 enables (default on)
///   LF_RT_WATCHDOG_WARMUP   warmup_windows, >= 1
///   LF_RT_WATCHDOG_BREACH   breach_windows (M), >= 1
///   LF_RT_WATCHDOG_MIN_ROUTES  min_window_routes, >= 1
///   LF_RT_WATCHDOG_P999_FACTOR p999_spike_factor, in [1, 1000]
watchdog_config watchdog_config_from_env();

/// One rule's rolling baseline (exposed for tests and the incident record).
struct baseline_stats {
  double mean = 0.0;
  double mad = 0.0;
  std::size_t samples = 0;  ///< windows folded in
};

/// One fired anomaly.
struct incident_record {
  std::uint64_t seq = 0;  ///< 1-based, monotonic per watchdog
  double t_s = 0.0;       ///< breach window end (sampler clock)
  anomaly_kind kind{};
  double observed = 0.0;
  double baseline = 0.0;   ///< baseline mean at trigger time
  double threshold = 0.0;  ///< envelope edge the observation crossed
  std::size_t breach_windows = 0;  ///< consecutive breaches at trigger
  double first_breach_t_s = 0.0;
  stats_window window{};   ///< the window that completed the k-of-M run
  std::string dump_path;   ///< BLACKBOX_anomaly_<n>.json ("" if suppressed)
  // Control-plane context at trigger time.
  std::uint64_t versions_live = 0;
  std::uint64_t versions_retired = 0;
  std::uint64_t switches = 0;
  std::uint64_t installs = 0;
  std::uint64_t gate_blocks = 0;
  // Post-switch classifier (cross-rule correlation): a p999_spike /
  // shadow_drift / rps_collapse that fires while a snapshot switch's
  // probation hold is still open is a different incident class than a bare
  // spike — the admitted candidate is the prime suspect.
  bool post_switch = false;        ///< classed post_switch_regression
  std::uint64_t suspect_model = 0;  ///< model whose probation hold was open
  std::uint64_t suspect_gen = 0;    ///< gen the suspect switch installed
  std::uint64_t rollback_gen = 0;   ///< previous gen re-promoted by the
                                    ///< rollback policy (0: policy off or
                                    ///< the rollback lost a race)
};

class anomaly_watchdog {
 public:
  /// `engine` may be null (pure-baseline tests): then no counters context,
  /// no anomaly event, no dump — just incident records.
  explicit anomaly_watchdog(watchdog_config cfg,
                            datapath_engine* engine = nullptr);

  anomaly_watchdog(const anomaly_watchdog&) = delete;
  anomaly_watchdog& operator=(const anomaly_watchdog&) = delete;

  bool enabled() const noexcept { return cfg_.enabled; }
  const watchdog_config& config() const noexcept { return cfg_; }

  /// Evaluate one folded window (called by stats_sampler::tick on the
  /// sampler thread; any single thread in tests).  `max_shadow_divergence`
  /// is the worst per-model mean divergence with evidence this window
  /// (<= 0 = no evidence, rule skipped).
  void observe(const stats_window& w, double max_shadow_divergence = 0.0);

  std::vector<incident_record> incidents() const;
  std::uint64_t incident_count() const;
  std::uint64_t incident_count(anomaly_kind k) const;
  /// Incidents classified post_switch_regression / rollbacks the policy
  /// actually executed (auto_rollback on, engine rollback succeeded).
  std::uint64_t post_switch_incidents() const;
  std::uint64_t rollbacks_issued() const;
  baseline_stats baseline(anomaly_kind k) const;
  std::size_t windows_seen() const;

  /// Anomaly dumps written / suppressed by the engine's recorder (0 each
  /// without an engine or recorder).
  std::uint64_t dumps() const noexcept;
  std::uint64_t dumps_suppressed() const noexcept;

  /// Counters under "<prefix>.incidents", "<prefix>.<kind>" and gauges
  /// "<prefix>.dumps" / "<prefix>.dumps_suppressed" (the gauges mirror the
  /// recorder's rate-limiter state at the last fire).
  void register_metrics(metrics::registry& reg, const std::string& prefix);

  /// Rewrite INCIDENT_<label>.json in bench::output_dir() (temp + rename,
  /// same atomicity contract as the Prometheus text).  Returns the path, or
  /// "" when there are no incidents or no label — a clean run never creates
  /// the file, which is exactly what CI's zero-false-positive leg asserts.
  std::string write_incidents() const;

  /// Incidents table for the HTML flight report (empty table when clean).
  report::table_data incidents_table() const;
  /// One alert marker per incident for the telemetry charts.
  std::vector<report::marker> incident_markers() const;

 private:
  struct rule_state {
    baseline_stats base;
    std::size_t breach_run = 0;  ///< breaching windows in the open run
    std::size_t clean_run = 0;   ///< consecutive clean windows since a breach
    bool latched = false;        ///< fired and not yet re-armed
    double first_breach_t = 0.0;
  };

  /// One rule evaluation: warmup/baseline fold on clean windows, breach-run
  /// bookkeeping and (maybe) fire on breaching ones.  high = breach above
  /// the envelope, else below.  Caller holds mu_.
  void evaluate(anomaly_kind k, const stats_window& w, double v);
  void fire(anomaly_kind k, const stats_window& w, double observed,
            double threshold, rule_state& r);
  /// True for the rules the post-switch classifier correlates with an open
  /// probation hold (datapath symptoms a bad candidate produces).
  static bool classifiable(anomaly_kind k) noexcept;
  double envelope(anomaly_kind k, const baseline_stats& b) const;
  /// Clean windows needed to close a breach run: retired_leak_rearm for
  /// that rule, 1 (re-arm on any clean window) for every other.
  std::size_t rearm_windows(anomaly_kind k) const noexcept;
  std::string write_incidents_locked() const;

  watchdog_config cfg_;
  datapath_engine* engine_;

  mutable std::mutex mu_;
  std::size_t windows_seen_ = 0;
  rule_state rules_[anomaly_kind_count];
  std::vector<incident_record> incidents_;
  metrics::counter incidents_total_;
  metrics::counter per_kind_[anomaly_kind_count];
  metrics::counter post_switch_;
  metrics::counter rollbacks_issued_;
  metrics::gauge dumps_gauge_;
  metrics::gauge dumps_suppressed_gauge_;
};

}  // namespace lf::rt

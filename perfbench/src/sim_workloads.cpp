// sim workloads: the paper experiments the apps layer exposes, run whole,
// over sim, netsim, transport, kernelsim, core, nn and rl.
//
//   sim_cc     run_cc_single_flow, LF-Aurora on the 1 Gbps / 10 ms / 150 KB
//              dumbbell with 0.1 Gbps UDP background; the path turns 8%
//              lossy halfway (the fig12 shape).  Host time is dominated by
//              the FP64 policy-gradient trainer: pretraining plus 20
//              iterations per delivered batch.
//   sim_sched  run_sched_experiment, LF-FFNN flow scheduling on a 2x16-host
//              spine-leaf with DCTCP, arrivals at 6000/s, pattern shift
//              every 0.25 s, small pretraining.  Host time is dominated by
//              the event core and netsim/transport.
//
// One run makes experiment calls on sub-seeds derived from --seed (3 for
// sim_cc, 6 for sim_sched), cycling, until --seconds have passed and at
// least one sub-seed has repeated.  Every repeat of a sub-seed must reproduce that sub-seed's digest
// of the simulated statistics exactly.  After each call, a probe times a
// slice of routes and snapshot updates through the sim datapath
// (core::liteflow_core) on a fixed-weight model of the workload's shape.
#include <map>
#include <memory>
#include <stdexcept>

#include "apps/cc/aurora_adapter.hpp"
#include "apps/cc/cc_experiment.hpp"
#include "apps/sched/flow_sched.hpp"
#include "apps/sched/sched_experiment.hpp"
#include "codegen/snapshot.hpp"
#include "common.hpp"
#include "core/liteflow_core.hpp"
#include "kernels.hpp"
#include "kernelsim/cpu.hpp"
#include "nn/mlp.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using lf::fp::s64;

constexpr std::size_t k_setup_reps = 3;
constexpr std::size_t k_pg_iters_per_batch = 20;  ///< aurora_adapter default

// sim_cc scenario.
constexpr double k_cc_duration = 4.0;   ///< simulated seconds
constexpr double k_cc_loss_at = 2.0;    ///< the path turns lossy here
constexpr double k_cc_loss = 0.08;
constexpr std::size_t k_cc_pretrain = 100;

// sim_sched scenario.
constexpr std::size_t k_sched_flows = 1500;
constexpr double k_sched_shift_period = 0.125;
constexpr std::size_t k_sched_pretrain_flows = 400;
constexpr std::size_t k_sched_pretrain_epochs = 60;

// Datapath probe: a fixed number of routes after each call, about 0.4 s
// (Aurora) or 0.15 s (FFNN).
constexpr std::size_t k_probe_slice_aurora = 1 << 17;
constexpr std::size_t k_probe_slice_ffnn = 1 << 18;
constexpr std::size_t k_probe_block = 4096;  ///< queries between sim drains
constexpr std::size_t k_probe_update_every = 4096;
constexpr std::uint64_t k_probe_model_seed = 0x5eed;
constexpr std::size_t k_probe_flows = 64;  ///< routed round robin
constexpr std::size_t k_probe_flow_routes = 10;  ///< routes per flow
constexpr std::uint64_t k_probe_lat_mask = 7;  ///< 1-in-8 queries timed

enum span_name : std::uint32_t {
  sp_pretrain, sp_call, sp_generate, sp_pg_iterate, sp_query, sp_update
};
const std::vector<std::string> k_span_names = {
    "pretrain", "apps.experiment_call", "codegen.generate_snapshot",
    "rl.pg_trainer.iterate", "core.query_model_sync", "core.update"};

/// Experiment seed of call i: `subs` distinct sub-seeds derived from the run
/// seed, cycled, so calls past the first `subs` repeat one and must
/// reproduce its digest.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t i, std::size_t subs) {
  return mix_seed(seed, 9000 + i % subs) & 0xffffffffULL;
}

lf::apps::cc_single_flow_config cc_config(std::uint64_t seed) {
  lf::apps::cc_single_flow_config c;
  c.scheme = lf::apps::cc_scheme::lf_aurora;
  c.net.bottleneck_bps = 1e9;
  c.net.rtt = 10e-3;
  c.net.buffer_bytes = 150 * 1000;
  c.bg_bps = 0.1e9;
  c.duration = k_cc_duration;
  c.warmup = 0.5;
  c.bg_schedule = {{k_cc_loss_at, 0.1e9, k_cc_loss}};
  c.pretrain_iterations = k_cc_pretrain;
  c.seed = seed;
  // Explicit overrides: no environment variable can change the run.  The
  // monitor's ledger is what shows an install after the loss change.
  c.trace = lf::apps::trace_options{};
  c.monitor = lf::core::monitor_config{};
  c.monitor->enabled = true;
  c.report = lf::apps::report_options{};
  return c;
}

lf::apps::sched_experiment_config sched_config(std::uint64_t seed) {
  lf::apps::sched_experiment_config c;
  c.deployment = lf::apps::sched_deployment::liteflow;
  c.hosts_per_leaf = 16;
  c.arrival_rate = 6000.0;
  c.total_flows = k_sched_flows;
  c.pretrain_flows = k_sched_pretrain_flows;
  c.pretrain_epochs = k_sched_pretrain_epochs;
  c.pattern_shift_period = k_sched_shift_period;
  c.max_sim_time = 60.0;
  c.seed = seed;
  return c;
}

/// The adapter run_cc_single_flow builds for LF-Aurora on this path: its
/// training simulator matched to the dumbbell.
lf::apps::aurora_adapter_config cc_adapter_config(
    const lf::apps::cc_single_flow_config& c) {
  lf::apps::aurora_adapter_config a;
  a.model = lf::apps::cc_model::aurora;
  a.env.bandwidth_bps = c.net.bottleneck_bps;
  a.env.background_bps = std::min(c.bg_bps, 0.9 * c.net.bottleneck_bps);
  a.env.base_rtt = c.net.rtt;
  a.env.queue_bytes = static_cast<double>(c.net.buffer_bytes);
  a.seed = c.seed;
  return a;
}

/// The pretraining run_sched_experiment starts with: a replayed AR(1)
/// flow-size dataset and up to five restarts of supervised_adapter's
/// pretrain, keeping the best.  Returns the best model.
lf::nn::mlp sched_pretrain(const lf::apps::sched_experiment_config& c) {
  lf::rng gen{c.seed + 1000};
  lf::apps::correlated_size_process sizes{c.hosts_per_leaf * 2,
                                          c.size_correlation, c.seed + 2000};
  lf::apps::flow_context_tracker tracker;
  std::vector<lf::nn::training_sample> dataset;
  const auto hosts = static_cast<std::int64_t>(c.hosts_per_leaf * 2);
  double now = 0.0;
  for (std::size_t i = 0; i < c.pretrain_flows; ++i) {
    const auto src = static_cast<std::size_t>(gen.uniform_int(0, hosts - 1));
    auto dst = static_cast<std::size_t>(gen.uniform_int(0, hosts - 2));
    if (dst >= src) ++dst;
    now += gen.exponential(c.arrival_rate);
    const auto size = sizes.next_size(src, dst);
    lf::nn::training_sample ts;
    ts.input = tracker.features(src, dst, now);
    ts.input[6] = gen.uniform(0.0, 0.2);
    ts.target = {lf::apps::encode_flow_size(static_cast<double>(size))};
    dataset.push_back(std::move(ts));
    tracker.on_flow_start(src, dst, now);
    tracker.on_flow_complete(src, dst, now, size);
  }
  std::unique_ptr<lf::nn::mlp> best;
  double best_loss = 1e300;
  for (std::uint64_t attempt = 0; attempt < 5; ++attempt) {
    lf::rng init{c.seed + 3000 + attempt * 7919};
    lf::apps::supervised_adapter warmup{lf::nn::make_ffnn_flow_size_net(init),
                                        3e-3, 1, c.seed + attempt};
    warmup.pretrain(dataset, c.pretrain_epochs);
    if (warmup.last_loss() < best_loss) {
      best_loss = warmup.last_loss();
      best = std::make_unique<lf::nn::mlp>(warmup.model());
    }
    if (best_loss < 0.004) break;
  }
  return *best;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double sum_suffix(const std::map<std::string, double>& t,
                  const std::string& suffix) {
  double v = 0.0;
  for (const auto& [k, x] : t) {
    if (ends_with(k, suffix)) v += x;
  }
  return v;
}

/// Deterministic outcome of one experiment call.
struct call_stats {
  double call_s = 0.0;  ///< host wall time (not in the digest)
  std::uint64_t digest = 0;
  double pkts_tx = 0.0, pkts_dropped = 0.0, ecn_marked = 0.0;
  double queries = 0.0, switches = 0.0, batches = 0.0, sync_checks = 0.0;
  double snapshot_updates = 0.0, completed = 0.0;
  double datapath_sim_s = 0.0, softirq_sim_s = 0.0, user_train_sim_s = 0.0;
  std::size_t planned_flows = 0;
  std::size_t installs_after_change = 0;
};

call_stats summarize(const lf::apps::run_result& res) {
  call_stats s;
  digest d;
  for (const auto& [k, v] : res.telemetry) {
    d.add(k);
    d.add(v);
  }
  d.add(res.mean_goodput);
  d.add(res.stddev_goodput);
  d.add(static_cast<std::uint64_t>(res.completed));
  d.add(res.snapshot_updates);
  for (const auto* c : {&res.short_flows, &res.mid_flows, &res.long_flows}) {
    d.add(static_cast<std::uint64_t>(c->count));
    d.add(c->mean_seconds);
    d.add(c->p99_seconds);
  }
  for (const auto& rec : res.lifecycle) {
    d.add(rec.version);
    d.add(rec.install_time);
    if (!rec.initial && rec.install_time > k_cc_loss_at) ++s.installs_after_change;
  }
  s.digest = d.value();
  const auto& t = res.telemetry;
  s.pkts_tx = sum_suffix(t, ".transmitted");
  s.pkts_dropped = sum_suffix(t, ".dropped") + sum_suffix(t, ".random_dropped");
  s.ecn_marked = sum_suffix(t, ".ecn_marked");
  s.queries = sum_suffix(t, ".core.queries");
  s.switches = sum_suffix(t, ".router.switches");
  s.batches = sum_suffix(t, ".service.batches");
  s.sync_checks = sum_suffix(t, ".service.sync_checks");
  s.snapshot_updates = sum_suffix(t, ".service.snapshot_updates");
  s.completed = static_cast<double>(res.completed);
  s.datapath_sim_s = sum_suffix(t, ".cpu.datapath_seconds");
  s.softirq_sim_s = sum_suffix(t, ".cpu.softirq_seconds");
  s.user_train_sim_s = sum_suffix(t, ".cpu.user_train_seconds");
  return s;
}

/// Times routes and snapshot updates through the sim datapath
/// (core::liteflow_core).  The run calls run_slice() after every experiment
/// call, so the probe's samples spread over the whole measured phase.
class sim_probe {
 public:
  sim_probe(const lf::nn::mlp& net, std::string name,
            const std::vector<s64>& inputs, std::uint64_t seed, bool traced,
            span_log& spans)
      : net_{net}, name_{std::move(name)}, inputs_{inputs}, traced_{traced},
        spans_{spans},
        cpu_{sim_}, core_{sim_, cpu_, costs_}, g_{mix_seed(seed, 31)},
        flows_(k_probe_flows) {
    for (auto& f : flows_) f = next_flow_++;
    update();
  }

  /// Route `n` queries (whole blocks of k_probe_block), updating the
  /// snapshot every k_probe_update_every queries.
  void run_slice(std::size_t n) {
    latency_log slice_lat;
    const std::size_t in = net_.input_size();
    const std::size_t rows = inputs_.size() / in;
    for (std::size_t done = 0; done < n; done += k_probe_block) {
      // Traced runs alternate plain and spanned blocks, so the overhead
      // ratio compares neighbouring blocks.
      const bool span_block = traced_ && (blocks_++ & 1) == 1;
      const std::uint64_t b0 = now_ns();
      std::uint64_t update_ns = 0;  // excluded from the block's route rate
      for (std::size_t i = 0; i < k_probe_block; ++i) {
        const std::uint64_t q = queries++;
        const std::size_t fi = q % k_probe_flows;
        const std::span<const s64> x{inputs_.data() + (g_.next() % rows) * in, in};
        std::size_t served = 0;
        if (span_block) {
          const std::uint64_t t0 = now_ns();
          served = core_.query_model_sync(flows_[fi], x).size();
          spans_.record(sp_query, flows_[fi], t0, now_ns());
        } else if ((q & k_probe_lat_mask) == 0) {
          const std::uint64_t t0 = now_ns();
          served = core_.query_model_sync(flows_[fi], x).size();
          slice_lat.add(now_ns() - t0);
        } else {
          served = core_.query_model_sync(flows_[fi], x).size();
        }
        if (served != net_.output_size()) ++unserved;
        // Every flow ends after k_probe_flow_routes routes, staggered across
        // flows, and a new flow takes its slot.
        if ((q / k_probe_flows + fi) % k_probe_flow_routes == 0) {
          core_.router().flow_finished(flows_[fi]);
          flows_[fi] = next_flow_++;
        }
        if (queries % k_probe_update_every == 0) {
          const auto [t0, t1] = update();
          update_ns += t1 - t0;
          update_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          if (span_block) spans_.record(sp_update, updates, t0, t1);
          ++updates;
        }
      }
      const double rate =
          k_probe_block / (static_cast<double>(now_ns() - b0 - update_ns) * 1e-9);
      (span_block ? traced_rate : plain_rate).push_back(rate);
      sim_.run();  // drain the CPU charges the queries queued
    }
    slice_p99.push_back(slice_lat.quantile(0.99));
    lat.merge(slice_lat);
  }

  latency_log lat;
  /// p99 of each slice: a slice is ~0.15-0.5 s, so 1% of its samples can
  /// fall inside one host hiccup; the median over slices does not.
  std::vector<double> slice_p99;
  std::vector<double> update_us;
  std::vector<double> plain_rate, traced_rate;  ///< queries/s per block
  std::uint64_t queries = 0, unserved = 0, updates = 0, update_failures = 0;

 private:
  /// One snapshot update as the sim control plane performs it: generate
  /// the next version from the FP64 model (freeze, quantize, translate),
  /// register, install and switch it, and unregister the demoted version.
  /// Returns the timed interval.
  std::pair<std::uint64_t, std::uint64_t> update() {
    const std::uint64_t t0 = now_ns();
    const auto id = core_.register_model(
        lf::codegen::generate_snapshot(net_, name_, ++version_));
    core_.install_standby(id);
    const bool flipped = core_.switch_active().admitted;
    // The demoted module unloads now or once its last flow drains.
    core_.unregister_model(name_, version_ - 1);
    const std::uint64_t t1 = now_ns();
    if (!flipped) ++update_failures;
    return {t0, t1};
  }

  const lf::nn::mlp& net_;
  const std::string name_;
  const std::vector<s64>& inputs_;
  const bool traced_;
  span_log& spans_;
  lf::sim::simulation sim_;
  const lf::kernelsim::cost_model costs_{};
  lf::kernelsim::cpu_model cpu_;
  lf::core::liteflow_core core_;
  fast_rng g_;
  std::vector<std::uint64_t> flows_;
  std::uint64_t next_flow_ = 1;
  std::uint64_t version_ = 0;
  std::uint64_t blocks_ = 0;
};

}  // namespace

run_result run_sim_workload(const options& opt) {
  const bool cc = opt.workload == "sim_cc";
  if (!cc && opt.workload != "sim_sched") {
    throw std::invalid_argument{"unknown sim workload " + opt.workload};
  }
  // sim_cc calls take ~5 s, sim_sched calls ~2 s: more distinct sub-seeds
  // where more calls fit, so the median call spans more inputs.
  const std::size_t subs = cc ? 3 : 6;
  run_result r;
  const double clock_ns = calibrate_clock_ns();
  span_log spans{1 << 17};

  // ---- set-up: the experiment's own pretraining, run alone, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<lf::nn::mlp> model;
  std::unique_ptr<lf::apps::aurora_adapter> adapter;
  for (std::size_t rep = 0; rep < k_setup_reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    if (cc) {
      adapter = std::make_unique<lf::apps::aurora_adapter>(
          cc_adapter_config(cc_config(sub_seed(opt.seed, 0, subs))));
      adapter->pretrain(k_cc_pretrain);
    } else {
      model = std::make_unique<lf::nn::mlp>(
          sched_pretrain(sched_config(sub_seed(opt.seed, 0, subs))));
    }
    const std::uint64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    spans.record(sp_pretrain, rep, t0, t1);
  }
  if (cc) model = std::make_unique<lf::nn::mlp>(adapter->model());

  // ---- the sim datapath probe.  Its model has the workload's shape and
  // fixed weights: the weights decide which inference path runs (the
  // saturation-free proof is per layer), so seed-dependent weights would
  // make the probe's timings depend on the seed.
  lf::rng probe_init{k_probe_model_seed};
  const lf::nn::mlp probe_net = cc ? lf::nn::make_aurora_net(probe_init)
                                   : lf::nn::make_ffnn_flow_size_net(probe_init);
  const std::string probe_name = cc ? "bench-aurora" : "bench-ffnn";
  std::vector<s64> inputs(4096 * probe_net.input_size());
  {
    fast_rng g{mix_seed(opt.seed, 7)};
    for (auto& x : inputs) x = static_cast<s64>(g.next() % 1801) - 900;
  }
  sim_probe probe{probe_net, probe_name, inputs, opt.seed, opt.trace, spans};
  const std::size_t probe_slice = cc ? k_probe_slice_aurora : k_probe_slice_ffnn;

  // ---- measured phase: whole experiment calls.
  std::vector<call_stats> calls;
  std::map<std::size_t, std::uint64_t> digests;
  std::uint64_t digest_mismatches = 0, incomplete = 0;
  std::size_t installs_after_change = 0;
  const std::uint64_t run0 = now_ns();
  for (std::size_t i = 0;
       i <= subs || seconds_since(run0) < static_cast<double>(opt.seconds);
       ++i) {
    const std::uint64_t seed = sub_seed(opt.seed, i, subs);
    const std::uint64_t t0 = now_ns();
    lf::apps::run_result res;
    std::size_t planned = 0;
    if (cc) {
      res = lf::apps::run_cc_single_flow(cc_config(seed));
    } else {
      const auto c = sched_config(seed);
      planned = c.total_flows;
      res = lf::apps::run_sched_experiment(c);
    }
    const std::uint64_t t1 = now_ns();
    spans.record(sp_call, seed, t0, t1);
    call_stats s = summarize(res);
    s.call_s = static_cast<double>(t1 - t0) * 1e-9;
    s.planned_flows = planned;
    const auto [it, fresh] = digests.emplace(i % subs, s.digest);
    if (!fresh && it->second != s.digest) ++digest_mismatches;
    if (!cc && s.completed != static_cast<double>(planned)) ++incomplete;
    installs_after_change += s.installs_after_change;
    char line[160];
    std::snprintf(line, sizeof line,
                  "call %zu sub-seed %llu: %.3f s, snapshot updates %.0f (%zu "
                  "after the loss change), flows completed %.0f",
                  i, static_cast<unsigned long long>(seed), s.call_s,
                  s.snapshot_updates, s.installs_after_change, s.completed);
    r.notes.push_back(line);
    calls.push_back(s);
    probe.run_slice(probe_slice);
  }

  // ---- verdict.
  std::uint64_t planned_flows = 0;
  for (const auto& c : calls) planned_flows += c.planned_flows;
  r.attempted = calls.size() + planned_flows + probe.queries + probe.updates;
  // The adaptation check is per run: across its calls, sim_cc must retrain
  // and install at least once after the path turns lossy.  (A single call
  // can legitimately starve its flow and never install.)
  const bool no_install = cc && installs_after_change == 0;
  r.failed = digest_mismatches + incomplete + (no_install ? 1 : 0) +
             probe.unserved + probe.update_failures;
  if (digest_mismatches) {
    r.fail(std::to_string(digest_mismatches) +
           " calls did not repeat their sub-seed's digest");
  }
  if (incomplete) r.fail(std::to_string(incomplete) + " calls left flows unfinished");
  if (no_install) r.fail("no call installed a snapshot after the loss change");
  if (probe.unserved) r.fail(std::to_string(probe.unserved) + " probe routes not served");
  if (probe.update_failures) r.fail("probe updates did not switch");
  const call_stats& c0 = calls.front();
  if (c0.pkts_tx == 0 || (!cc && c0.completed == 0) || probe.lat.count() == 0) {
    r.fail("the experiment did no work");
    ++r.failed;
  }

  // ---- end-to-end metrics.
  std::vector<double> call_s, ns_per_pkt;
  for (const auto& c : calls) {
    call_s.push_back(c.call_s);
    ns_per_pkt.push_back(c.call_s * 1e9 / c.pkts_tx);
  }
  r.set("routes_per_s", median(probe.plain_rate));
  r.set("route_p50_ns", probe.lat.quantile(0.50));
  r.set("route_p99_ns", median(probe.slice_p99));
  r.set("update_p50_us", median(probe.update_us));
  r.set("run_s", median(call_s));
  r.set("setup_s", median(setup_s));
  r.set("peak_rss_mb", peak_rss_mb());
  for (std::size_t k = 0; k < subs && k < calls.size(); ++k) {
    const call_stats& c = calls[k];
    r.notes.push_back("digest sub-seed " + std::to_string(sub_seed(opt.seed, k, subs)) +
                      " " + hex64(c.digest) + " (pkts_tx " +
                      std::to_string(static_cast<std::uint64_t>(c.pkts_tx)) +
                      ", updates " +
                      std::to_string(static_cast<std::uint64_t>(c.snapshot_updates)) +
                      ", completed " +
                      std::to_string(static_cast<std::uint64_t>(c.completed)) + ")");
  }
  r.notes.push_back("calls " + std::to_string(calls.size()) + "; probe queries " +
                    std::to_string(probe.queries) + ", latency samples " +
                    std::to_string(probe.lat.count()) + ", updates " +
                    std::to_string(probe.updates));
  if (!opt.trace) return r;

  // ---- per-layer metrics (traced run).
  measure_kernels(lf::codegen::generate_snapshot(probe_net, probe_name, 1).program,
                  probe_net, inputs, r);
  std::vector<double> generate_ms;
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t t0 = now_ns();
    const auto s = lf::codegen::generate_snapshot(*model, "bench-generate", 1);
    const std::uint64_t t1 = now_ns();
    spans.record(sp_generate, static_cast<std::uint64_t>(i), t0, t1);
    generate_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  }
  r.set("codegen.generate_ms", median(generate_ms));
  if (cc) {
    std::vector<double> iter_ms;
    for (int i = 0; i < 15; ++i) {
      const std::uint64_t t0 = now_ns();
      adapter->trainer().iterate();
      const std::uint64_t t1 = now_ns();
      spans.record(sp_pg_iterate, static_cast<std::uint64_t>(i), t0, t1);
      iter_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
    const double pretrain = median(setup_s);
    const double iter = median(iter_ms);
    r.set("rl.pretrain_s", pretrain);
    r.set("rl.pg_iter_ms", iter);
    r.set("rl.train_est_share",
          (pretrain + iter * 1e-3 * k_pg_iters_per_batch * c0.batches) / c0.call_s);
  } else {
    r.set("nn.pretrain_s", median(setup_s));
  }
  r.set("sim.host_ns_per_pkt", median(ns_per_pkt));
  r.set("netsim.pkts_tx", c0.pkts_tx);
  r.set("netsim.pkts_dropped", c0.pkts_dropped);
  r.set("netsim.ecn_marked", c0.ecn_marked);
  r.set("core.queries", c0.queries);
  r.set("core.switches", c0.switches);
  r.set("core.service.batches", c0.batches);
  r.set("core.service.sync_checks", c0.sync_checks);
  r.set("core.service.snapshot_updates", c0.snapshot_updates);
  r.set("core.service.update_ratio",
        c0.sync_checks > 0 ? c0.snapshot_updates / c0.sync_checks : 0.0);
  r.set("apps.flows_completed", c0.completed);
  r.set("kernelsim.datapath_sim_s", c0.datapath_sim_s);
  r.set("kernelsim.softirq_sim_s", c0.softirq_sim_s);
  r.set("kernelsim.user_train_sim_s", c0.user_train_sim_s);
  r.set("bench.clock_ns", clock_ns);
  r.set("bench.latency_samples", static_cast<double>(probe.lat.count()));
  const double traced_rate = median(probe.traced_rate);
  r.set("bench.trace_overhead_ratio",
        traced_rate > 0 ? median(probe.plain_rate) / traced_rate : 0.0);
  if (!opt.spans_out.empty() &&
      !write_spans(opt.spans_out, {&spans}, k_span_names)) {
    r.fail("cannot write spans to " + opt.spans_out);
    ++r.failed;
  }
  return r;
}

}  // namespace perfbench

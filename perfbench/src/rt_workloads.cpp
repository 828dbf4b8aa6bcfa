// rt workloads: closed-loop worker threads routing seeded packets through
// rt::datapath_engine while a writer thread updates the served snapshot.
//
//   rt_aurora  Aurora net (30->32->16->1): integer inference dominates the
//              route.  4096 flows per worker (the 64-slot L1 mostly misses
//              into L2), 1% of routes FIN and replace their flow, half the
//              packets arrive in 8-packet route_batch bursts, one update
//              every 20 ms.
//   rt_churn   FFNN flow-size net (8->5->5->1): resolve, insert/erase,
//              rehash, the epoch guard and post-switch L1 invalidation
//              dominate.  65536 flows per worker (past the cache's initial
//              slots, so it rehashes), 10% FIN, scalar routes, one update
//              every 2 ms.
//
// Clock hygiene: workers read the clock once every k_now_refresh routes and
// hand that coarse `now` to the engine; latency is timed on a fixed 1-in-64
// slice of scalar routes; throughput reads the clock only at window edges,
// on the main thread.
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "codegen/snapshot.hpp"
#include "common.hpp"
#include "kernels.hpp"
#include "nn/mlp.hpp"
#include "rt/rt_deployment.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using lf::fp::s64;
using counters = lf::rt::datapath_engine::live_counters;

struct rt_spec {
  bool aurora = true;
  std::size_t workers = 2;
  std::size_t flows_per_worker = 4096;  ///< power of two
  std::uint32_t fin_per_65536 = 655;    ///< FIN probability * 65536
  bool bursts = true;  ///< every 9th iteration routes an 8-packet batch
  double update_period_s = 0.020;
};

rt_spec spec_for(const std::string& workload) {
  rt_spec s;
  if (workload == "rt_churn") {
    s.aurora = false;
    s.flows_per_worker = 65536;
    s.fin_per_65536 = 6554;
    s.bursts = false;
    s.update_period_s = 0.002;
  } else if (workload != "rt_aurora") {
    throw std::invalid_argument{"unknown rt workload " + workload};
  }
  return s;
}

constexpr std::size_t k_pool = 4;             ///< pre-generated snapshots
constexpr std::size_t k_input_pool = 4096;    ///< seeded input vectors
constexpr std::size_t k_burst = 8;
constexpr std::uint64_t k_now_refresh = 256;  ///< routes per clock read
constexpr std::uint64_t k_lat_mask = 63;      ///< 1-in-64 scalar routes timed
constexpr std::uint64_t k_span_mask = 15;     ///< traced: 1-in-16 spanned
/// Set-up repeats for at least this long (and k_setup_reps times): one
/// repeat takes 0.5-10 ms, and a median over a full second does not move
/// with a short stretch of host slowness.
constexpr std::size_t k_setup_reps = 31;
constexpr double k_setup_min_s = 1.0;
constexpr double k_warmup_s = 0.5;
constexpr double k_window_s = 0.25;

enum span_name : std::uint32_t {
  sp_route, sp_route_batch, sp_fin, sp_update, sp_install, sp_switch,
  sp_maintain
};
const std::vector<std::string> k_span_names = {
    "rt.route", "rt.route_batch", "rt.fin", "rt.update", "rt.install",
    "rt.switch_active", "rt.maintain"};

enum phase : int { ph_warmup = 0, ph_measure = 1, ph_traced = 2, ph_stop = 3 };

struct worker_out {
  latency_log lat;  ///< sampled scalar route latencies
  std::uint64_t attempted = 0;
  std::uint64_t unserved = 0;
  std::uint64_t violations = 0;
  std::uint64_t checked = 0;     ///< outputs compared with the reference
  std::uint64_t mismatches = 0;
  span_log spans;
};

struct update_out {
  std::vector<double> update_us, install_us, switch_us, maintain_us;
  std::uint64_t versions_live_max = 0;
  std::uint64_t failed = 0;
  std::size_t served_pool_index = 0;  ///< pool entry active at the end
  span_log spans;
};

struct shared_state {
  std::atomic<int> phase{ph_warmup};
  std::uint64_t t0_ns = 0;
  /// generation -> pool index (-1 = unknown), published by the writer
  /// before the switch that makes the generation visible to readers.
  std::vector<std::atomic<int>> gen_pool;
};

/// The run's threads.  Every exit path stops and joins them, so neither an
/// exception on the main thread nor one inside a thread ends the process
/// with a thread still running.
class thread_group {
 public:
  explicit thread_group(shared_state& st) : st_{st} {}
  thread_group(const thread_group&) = delete;
  thread_group& operator=(const thread_group&) = delete;
  ~thread_group() { stop_and_join(); }

  /// Run `fn` on a new thread.  An exception it throws is recorded and
  /// stops the run.
  template <class Fn>
  void spawn(Fn fn) {
    threads_.emplace_back([this, fn = std::move(fn)] {
      try {
        fn();
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> g{mu_};
        if (error_.empty()) error_ = e.what();
        st_.phase.store(ph_stop, std::memory_order_relaxed);
      }
    });
  }

  void stop_and_join() {
    st_.phase.store(ph_stop, std::memory_order_relaxed);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// First exception a thread threw; empty if none.  After stop_and_join().
  std::string error() {
    const std::lock_guard<std::mutex> g{mu_};
    return error_;
  }

 private:
  shared_state& st_;
  std::mutex mu_;
  std::string error_;  ///< guarded by mu_
  std::vector<std::thread> threads_;
};

/// The model pool.  Weights are fixed, not drawn from the run seed: they
/// decide which inference path runs (the saturation-free proof is per
/// layer), so seed-dependent weights would make timings depend on the seed.
/// The seed drives the traffic: flows, inputs, FINs and the update order.
std::vector<lf::nn::mlp> make_nets(const rt_spec& s) {
  std::vector<lf::nn::mlp> nets;
  for (std::size_t i = 0; i < k_pool; ++i) {
    lf::rng g{0x5eed0000 + i};
    nets.push_back(s.aurora ? lf::nn::make_aurora_net(g)
                            : lf::nn::make_ffnn_flow_size_net(g));
  }
  return nets;
}

void run_worker(lf::rt::datapath_engine& eng, const rt_spec& s,
                shared_state& st, std::size_t wi, std::uint64_t seed,
                const std::vector<lf::codegen::snapshot>& pool,
                const std::vector<s64>& inputs, std::size_t in_size,
                worker_out& out) {
  lf::rt::worker_handle& w = eng.register_worker();
  fast_rng g{mix_seed(seed, 1000 + wi)};
  const std::size_t flows = s.flows_per_worker;
  const std::uint64_t id_base = (static_cast<std::uint64_t>(wi) + 1) << 40;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> ids(flows), expected(flows, 0);
  for (auto& id : ids) id = id_base + next_id++;

  s64 o1[1];
  std::vector<lf::netsim::flow_id_t> bflows(k_burst);
  std::vector<std::size_t> bidx(k_burst);
  std::vector<std::uint32_t> bin_idx(k_burst);
  std::vector<s64> bin(k_burst * in_size), bout(k_burst);
  std::vector<lf::rt::route_result> bres(k_burst);

  const auto check = [&](const lf::rt::route_result& r, std::size_t idx) {
    ++out.attempted;
    if (r.gen == 0 || !r.served) {
      ++out.unserved;
      return;
    }
    // Flow consistency: a hit serves the generation pinned at the flow's
    // last miss (this worker owns the flow, so every hit follows a miss).
    if (r.hit && r.gen != expected[idx]) {
      ++out.violations;
      eng.record_violation(w, ids[idx], expected[idx], r.gen);
    }
    expected[idx] = r.gen;
  };
  // A sampled output must equal the reference interpreter's output of the
  // generation that served it.  Runs outside every timed window.
  const auto verify = [&](std::uint64_t gen, std::span<const s64> input,
                          s64 got) {
    ++out.checked;
    const int pi = gen < st.gen_pool.size()
                       ? st.gen_pool[gen].load(std::memory_order_acquire)
                       : -1;
    if (pi < 0 || pool[static_cast<std::size_t>(pi)].program.infer(input)[0] != got) {
      ++out.mismatches;
    }
  };
  // 1-in-(FIN rate) routes end their flow; a fresh flow takes its place.
  const auto maybe_fin = [&](std::size_t idx, bool traced,
                             std::uint32_t parent) {
    if ((g.next() & 0xffff) >= s.fin_per_65536) return;
    if (traced) {
      const std::uint64_t a = now_ns();
      eng.flow_finished(w, ids[idx]);
      out.spans.record(sp_fin, ids[idx], a, now_ns(), parent);
    } else {
      eng.flow_finished(w, ids[idx]);
    }
    ids[idx] = id_base + next_id++;
    expected[idx] = 0;
  };

  double now = 0.0;
  std::uint64_t iter = 0, scalar = 0, batches = 0;
  for (;;) {
    const int ph = st.phase.load(std::memory_order_relaxed);
    if (ph == ph_stop) break;
    const bool measuring = ph != ph_warmup;
    const bool traced = ph == ph_traced;
    if ((iter++ & (k_now_refresh - 1)) == 0) now = seconds_since(st.t0_ns);

    if (s.bursts && iter % 9 == 0) {
      for (std::size_t b = 0; b < k_burst; ++b) {
        const std::uint64_t r = g.next();
        bidx[b] = r & (flows - 1);
        bflows[b] = ids[bidx[b]];
        bin_idx[b] = static_cast<std::uint32_t>((r >> 32) & (k_input_pool - 1));
        std::copy_n(inputs.data() + bin_idx[b] * in_size, in_size,
                    bin.data() + b * in_size);
      }
      const bool span_it = traced && (batches & k_span_mask) == 0;
      const std::uint64_t a = span_it ? now_ns() : 0;
      eng.route_batch(w, bflows, now, bin, bout, bres);
      const std::uint32_t sid =
          span_it ? out.spans.record(sp_route_batch, bflows[0], a, now_ns()) : 0;
      const bool keep = measuring && (batches & k_lat_mask) == 0;
      for (std::size_t b = 0; b < k_burst; ++b) {
        check(bres[b], bidx[b]);
        if (keep && bres[b].served) {
          verify(bres[b].gen, {bin.data() + b * in_size, in_size}, bout[b]);
        }
      }
      for (std::size_t b = 0; b < k_burst; ++b) maybe_fin(bidx[b], traced, sid);
      ++batches;
      continue;
    }

    const std::uint64_t r = g.next();
    const std::size_t idx = r & (flows - 1);
    const auto in = static_cast<std::uint32_t>((r >> 32) & (k_input_pool - 1));
    const std::span<const s64> input{inputs.data() + in * in_size, in_size};
    lf::rt::route_result res;
    std::uint32_t sid = 0;
    if (measuring && !traced && (scalar & k_lat_mask) == 0) {
      const std::uint64_t a = now_ns();
      res = eng.route(w, ids[idx], now, input, o1);
      const std::uint64_t b = now_ns();
      out.lat.add(b - a);
      if (res.served) verify(res.gen, input, o1[0]);
    } else if (traced && (scalar & k_span_mask) == 0) {
      const std::uint64_t a = now_ns();
      res = eng.route(w, ids[idx], now, input, o1);
      sid = out.spans.record(sp_route, ids[idx], a, now_ns());
    } else {
      res = eng.route(w, ids[idx], now, input, o1);
    }
    ++scalar;
    check(res, idx);
    maybe_fin(idx, traced, sid);
  }
}

/// The control plane: every update period install a different pool entry
/// as standby, switch it active and reclaim what drained.
void run_writer(lf::rt::datapath_engine& eng, const rt_spec& s,
                shared_state& st, const std::vector<lf::codegen::snapshot>& pool,
                std::uint64_t seed, update_out& out) {
  fast_rng g{mix_seed(seed, 77)};
  std::size_t cur = 0;
  const auto period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(s.update_period_s * 1e9));
  auto next = clock_type::now() + period;
  std::uint64_t n = 0;
  for (;;) {
    std::this_thread::sleep_until(next);
    next += period;
    const int ph = st.phase.load(std::memory_order_relaxed);
    if (ph == ph_stop) break;
    std::size_t idx = g.next() % (k_pool - 1);
    if (idx >= cur) ++idx;  // always a different pool entry
    lf::codegen::snapshot snap = pool[idx];  // the copy is not timed
    const std::uint64_t t0 = now_ns();
    const std::uint64_t gen = eng.install(std::move(snap));
    const std::uint64_t t1 = now_ns();
    if (gen >= st.gen_pool.size()) {
      ++out.failed;  // more updates than the run was sized for
      break;
    }
    st.gen_pool[gen].store(static_cast<int>(idx), std::memory_order_release);
    const bool flipped = eng.switch_active();
    const std::uint64_t t2 = now_ns();
    eng.maintain();
    const std::uint64_t t3 = now_ns();
    if (!flipped) ++out.failed;
    cur = idx;
    if (ph == ph_warmup) continue;
    out.install_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    out.switch_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    out.maintain_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
    out.update_us.push_back(static_cast<double>(t3 - t0) * 1e-3);
    out.versions_live_max =
        std::max<std::uint64_t>(out.versions_live_max, eng.versions_live());
    if (ph == ph_traced) {
      const std::uint32_t u = out.spans.record(sp_update, n, t0, t3);
      out.spans.record(sp_install, n, t0, t1, u);
      out.spans.record(sp_switch, n, t1, t2, u);
      out.spans.record(sp_maintain, n, t2, t3, u);
    }
    ++n;
  }
  out.served_pool_index = cur;
}

/// Measure `span_s` seconds in `k_window_s` windows.  Untraced runs keep
/// the workers in ph_measure; traced runs alternate ph_measure and ph_traced
/// windows, so the overhead ratio compares neighbouring windows.  The main
/// thread reads the clock and the engine's published route counter only at
/// window edges.  Returns the per-window route rates of each phase.
struct window_rates {
  std::vector<double> plain, traced;
  counters c0, c1;  ///< engine counters at the edges of the whole phase
};

window_rates run_windows(lf::rt::datapath_engine& eng, shared_state& st,
                         double span_s, bool alternate) {
  // counters_now() dereferences each shard's table, which a concurrent
  // rehash retires through the epoch domain: read it inside a guard of our
  // own reader slot so the old table cannot be freed under us.
  const std::size_t slot = eng.epochs().register_reader();
  const auto read_counters = [&] {
    const lf::rt::epoch_domain::guard g{eng.epochs(), slot};
    return eng.counters_now();
  };
  window_rates out;
  st.phase.store(ph_measure, std::memory_order_relaxed);
  out.c0 = read_counters();
  std::uint64_t t_prev = now_ns(), routes_prev = out.c0.routes;
  const std::uint64_t t_end = t_prev + static_cast<std::uint64_t>(span_s * 1e9);
  auto wake = clock_type::now();
  for (std::size_t n = 0; now_ns() < t_end; ++n) {
    const bool traced = alternate && (n & 1) == 1;
    st.phase.store(traced ? ph_traced : ph_measure, std::memory_order_relaxed);
    wake += std::chrono::nanoseconds(static_cast<std::int64_t>(k_window_s * 1e9));
    std::this_thread::sleep_until(wake);
    const counters c = read_counters();
    const std::uint64_t t = now_ns();
    (traced ? out.traced : out.plain)
        .push_back(static_cast<double>(c.routes - routes_prev) /
                   (static_cast<double>(t - t_prev) * 1e-9));
    t_prev = t;
    routes_prev = c.routes;
  }
  out.c1 = read_counters();
  return out;
}

}  // namespace

run_result run_rt_workload(const options& opt) {
  const rt_spec s = spec_for(opt.workload);
  run_result r;
  const double clock_ns = calibrate_clock_ns();

  // ---- set-up, repeated: pool generation + engine build + first install.
  std::vector<double> setup_s, generate_ms;
  std::vector<lf::nn::mlp> nets;
  std::vector<lf::codegen::snapshot> pool;
  std::unique_ptr<lf::rt::datapath_engine> eng;
  std::uint64_t first_gen = 0;
  lf::rt::engine_config cfg;
  // Reader slots: the workers plus the main thread's counter reads.  Shards
  // derive from it: next_pow2(2 * max_workers).
  cfg.max_workers = s.workers + 2;
  const std::uint64_t setup0 = now_ns();
  for (std::size_t rep = 0;
       rep < k_setup_reps || seconds_since(setup0) < k_setup_min_s; ++rep) {
    eng.reset();
    pool.clear();
    nets = make_nets(s);  // FP64 initialisation is not set-up time
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < k_pool; ++i) {
      const std::uint64_t g0 = now_ns();
      pool.push_back(lf::codegen::generate_snapshot(
          nets[i], s.aurora ? "bench-aurora" : "bench-ffnn", i + 1));
      generate_ms.push_back(seconds_since(g0) * 1e3);
    }
    eng = lf::rt::build_engine(cfg);
    first_gen = eng->install(pool[0]);
    if (!eng->switch_active()) r.fail("first switch found no standby");
    setup_s.push_back(seconds_since(t0));
  }
  const std::size_t in_size = pool[0].input_size();
  if (pool[0].output_size() != 1) throw std::logic_error{"expected 1 output"};

  // Seeded input pool inside the quantizer's input range (|q| < io_scale).
  std::vector<s64> inputs(k_input_pool * in_size);
  {
    fast_rng g{mix_seed(opt.seed, 7)};
    for (auto& x : inputs) x = static_cast<s64>(g.next() % 1801) - 900;
  }

  shared_state st;
  const double measure_s = static_cast<double>(opt.seconds);
  const auto max_updates = static_cast<std::size_t>(
      (measure_s + k_warmup_s + 2.0) / s.update_period_s * 1.5) + 64;
  st.gen_pool = std::vector<std::atomic<int>>(max_updates);
  for (auto& a : st.gen_pool) a.store(-1);
  if (first_gen >= st.gen_pool.size()) throw std::logic_error{"gen overflow"};
  st.gen_pool[first_gen].store(0);
  st.t0_ns = now_ns();

  std::vector<worker_out> wout(s.workers);
  if (opt.trace) {
    for (auto& w : wout) w.spans = span_log{static_cast<std::size_t>(measure_s * 2e5)};
  }
  update_out uout;
  if (opt.trace) uout.spans = span_log{max_updates * 4};

  thread_group threads{st};
  for (std::size_t i = 0; i < s.workers; ++i) {
    threads.spawn([&, i] {
      run_worker(*eng, s, st, i, opt.seed, pool, inputs, in_size, wout[i]);
    });
  }
  threads.spawn([&] { run_writer(*eng, s, st, pool, opt.seed, uout); });

  // ---- measured phase.
  std::this_thread::sleep_for(std::chrono::duration<double>(k_warmup_s));
  const window_rates wr = run_windows(*eng, st, measure_s, opt.trace);
  const counters& m0 = wr.c0;
  const counters& m1 = wr.c1;
  threads.stop_and_join();
  if (const std::string e = threads.error(); !e.empty()) {
    throw std::runtime_error{"worker thread failed: " + e};
  }

  // ---- drain and leak check: FIN every flow, close holds, reclaim.  Only
  // the final active (and a possibly-uninstalled standby) may survive.
  eng->cache().clear(eng->snapshots());
  eng->close_probation();
  eng->maintain();
  eng->epochs().synchronize();
  eng->maintain();
  const std::uint64_t live = eng->versions_live();

  std::uint64_t attempted = 0, unserved = 0, violations = 0, mismatches = 0,
                checked = 0;
  latency_log lat;
  for (const auto& w : wout) {
    attempted += w.attempted;
    unserved += w.unserved;
    violations += w.violations;
    checked += w.checked;
    mismatches += w.mismatches;
    lat.merge(w.lat);
  }
  const std::uint64_t routes = m1.routes - m0.routes;
  r.attempted = attempted + uout.update_us.size() + checked;
  r.failed = unserved + violations + mismatches + uout.failed +
             (live > 2 ? live - 2 : 0);
  if (unserved) r.fail(std::to_string(unserved) + " routes not served");
  if (violations) r.fail(std::to_string(violations) + " flow-consistency violations");
  if (mismatches) r.fail(std::to_string(mismatches) + " outputs differ from the reference");
  if (uout.failed) r.fail(std::to_string(uout.failed) + " updates failed");
  if (live > 2) r.fail(std::to_string(live) + " versions live after the drain");
  if (routes == 0 || lat.count() == 0 || uout.update_us.empty()) {
    r.fail("the measured phase did no work");
    ++r.failed;
  }

  // ---- end-to-end metrics.
  const double rps = median(wr.plain);
  r.set("routes_per_s", rps);
  r.set("route_p50_ns", lat.quantile(0.50));
  r.set("route_p99_ns", lat.quantile(0.99));
  r.set("update_p50_us", median(uout.update_us));
  r.set("run_s", rps > 0 ? 1e6 / rps : 0.0);  // host seconds per 1M routes
  r.set("setup_s", median(setup_s));
  r.set("peak_rss_mb", peak_rss_mb());
  r.notes.push_back("routes " + std::to_string(routes) + " in " +
                    std::to_string(wr.plain.size()) + " windows; latency samples " +
                    std::to_string(lat.count()) + "; updates " +
                    std::to_string(uout.update_us.size()) + "; outputs checked " +
                    std::to_string(checked) + "; versions live after drain " +
                    std::to_string(live));
  if (!opt.trace) return r;

  // ---- per-layer metrics (traced run).
  const std::size_t served = uout.served_pool_index;
  measure_kernels(pool[served].program, nets[served], inputs, r);
  std::vector<double> route_d, batch_d, fin_d;
  for (const auto& w : wout) {
    for (const span& sp : w.spans.spans()) {
      const auto d = static_cast<double>(sp.end_ns - sp.start_ns);
      if (sp.name == sp_route) route_d.push_back(d);
      if (sp.name == sp_route_batch) batch_d.push_back(d);
      if (sp.name == sp_fin) fin_d.push_back(d);
    }
  }
  // Span medians less one clock read (the part of the span the read adds).
  const auto net_ns = [&](const std::vector<double>& d) {
    return d.empty() ? 0.0 : std::max(0.0, median(d) - clock_ns);
  };
  const double route_ns = net_ns(route_d);
  r.set("rt.route_ns", route_ns);
  r.set("rt.route_batch_ns_per_pkt", net_ns(batch_d) / k_burst);
  r.set("rt.resolve_ns", std::max(0.0, route_ns - r.metrics["quant.infer_ns"]));
  r.set("rt.fin_ns", net_ns(fin_d));
  const auto dr = static_cast<double>(m1.routes - m0.routes);
  const auto per_route = [&](std::uint64_t a, std::uint64_t b) {
    return dr > 0 ? static_cast<double>(b - a) / dr : 0.0;
  };
  r.set("rt.l1_hit_ratio", per_route(m0.l1_hits, m1.l1_hits));
  r.set("rt.l2_hit_ratio", per_route(m0.l2_hits, m1.l2_hits));
  r.set("rt.miss_ratio", per_route(m0.misses, m1.misses));
  r.set("rt.locks_per_route", per_route(m0.lock_acquisitions, m1.lock_acquisitions));
  const auto locks = static_cast<double>(m1.lock_acquisitions - m0.lock_acquisitions);
  r.set("rt.lock_contended_ratio",
        locks > 0 ? static_cast<double>(m1.lock_contended - m0.lock_contended) / locks
                  : 0.0);
  r.set("rt.read_retries_per_route", per_route(m0.read_retries, m1.read_retries));
  r.set("rt.read_fallbacks_per_route", per_route(m0.read_fallbacks, m1.read_fallbacks));
  r.set("rt.cache_evictions", static_cast<double>(m1.cache_evictions - m0.cache_evictions));
  r.set("rt.install_us", median(uout.install_us));
  r.set("rt.switch_us", median(uout.switch_us));
  r.set("rt.maintain_us", median(uout.maintain_us));
  r.set("rt.versions_live_max", static_cast<double>(uout.versions_live_max));
  r.set("rt.versions_retired", static_cast<double>(eng->versions_retired()));
  r.set("codegen.generate_ms", median(generate_ms));
  r.set("bench.clock_ns", clock_ns);
  r.set("bench.latency_samples", static_cast<double>(lat.count()));
  const double traced_rps = median(wr.traced);
  r.set("bench.trace_overhead_ratio", traced_rps > 0 ? rps / traced_rps : 0.0);
  r.notes.push_back("spans: route " + std::to_string(route_d.size()) +
                    ", route_batch " + std::to_string(batch_d.size()) + ", fin " +
                    std::to_string(fin_d.size()) + ", updates " +
                    std::to_string(uout.update_us.size()));
  if (!opt.spans_out.empty()) {
    std::vector<const span_log*> logs;
    for (const auto& w : wout) logs.push_back(&w.spans);
    logs.push_back(&uout.spans);
    if (!write_spans(opt.spans_out, logs, k_span_names)) {
      r.fail("cannot write spans to " + opt.spans_out);
      ++r.failed;
    }
  }
  return r;
}

}  // namespace perfbench

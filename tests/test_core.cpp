// Tests for the LiteFlow core library: NN manager refcounting, the
// active/standby inference router with flow cache (§3.4), the core module
// APIs (§4.2), batched data delivery (§3.2), sync evaluation (§3.3) and the
// end-to-end userspace service pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/batch_collector.hpp"
#include "core/inference_router.hpp"
#include "core/liteflow_core.hpp"
#include "core/nn_manager.hpp"
#include "core/sync_evaluator.hpp"
#include "core/userspace_service.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::core;

codegen::snapshot tiny_snapshot(const std::string& name, std::uint64_t version,
                                std::uint64_t seed = 5) {
  rng g{seed};
  const auto net = nn::make_ffnn_flow_size_net(g);
  return codegen::generate_snapshot(net, name, version);
}

// -------------------------------------------------------------- manager --

TEST(NnManager, RegisterAndLookup) {
  nn_manager m;
  const auto id = m.register_model(tiny_snapshot("ffnn", 1));
  ASSERT_NE(m.get(id), nullptr);
  EXPECT_EQ(m.get(id)->name, "ffnn");
  EXPECT_EQ(m.installed_count(), 1u);
  EXPECT_EQ(m.get(id + 57), nullptr);
}

TEST(NnManager, DuplicateNameVersionRejected) {
  nn_manager m;
  m.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_THROW(m.register_model(tiny_snapshot("ffnn", 1)),
               std::invalid_argument);
  // Same name, new version is fine.
  EXPECT_NO_THROW(m.register_model(tiny_snapshot("ffnn", 2)));
}

TEST(NnManager, RemoveBlockedByRefcountThenDeferred) {
  nn_manager m;
  const auto id = m.register_model(tiny_snapshot("ffnn", 1));
  m.add_ref(id);
  EXPECT_FALSE(m.try_remove(id));  // a flow still pins the module
  EXPECT_NE(m.get(id), nullptr);   // still installed (pending removal)
  m.release(id);                   // last ref drops -> deferred unload fires
  EXPECT_EQ(m.get(id), nullptr);
}

TEST(NnManager, RemoveWithoutRefsIsImmediate) {
  nn_manager m;
  const auto id = m.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_TRUE(m.try_remove(id));
  EXPECT_EQ(m.get(id), nullptr);
}

TEST(NnManager, ReleaseUnderflowIsCountedNotThrown) {
  // Broken release pairing is a datapath-adjacent bug: diagnose it through
  // a counter instead of unwinding through the caller (a kernel-side FIN
  // handler has nowhere to catch).
  nn_manager m;
  const auto id = m.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_EQ(m.refcount_errors(), 0u);
  EXPECT_NO_THROW(m.release(id));  // refcount already 0
  EXPECT_EQ(m.refcount_errors(), 1u);
  // The bogus release must not corrupt the count: a real ref/release pair
  // still balances and the module stays installed throughout.
  m.add_ref(id);
  m.release(id);
  EXPECT_EQ(m.refcount_errors(), 1u);
  EXPECT_NE(m.get(id), nullptr);
}

TEST(NnManager, UnknownIdRefOpsAreCounted) {
  nn_manager m;
  const auto id = m.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_NO_THROW(m.add_ref(id + 99));
  EXPECT_NO_THROW(m.release(id + 99));
  EXPECT_EQ(m.refcount_errors(), 2u);

  metrics::registry reg;
  m.register_metrics(reg, "nn");
  bool found = false;
  for (const auto& [name, value] : reg.scalars()) {
    if (name == "nn.refcount_errors") {
      found = true;
      EXPECT_DOUBLE_EQ(value, 2.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(NnManager, FindLatestPicksHighestVersion) {
  nn_manager m;
  m.register_model(tiny_snapshot("ffnn", 1));
  const auto id3 = m.register_model(tiny_snapshot("ffnn", 3));
  m.register_model(tiny_snapshot("ffnn", 2));
  ASSERT_TRUE(m.find_latest("ffnn").has_value());
  EXPECT_EQ(*m.find_latest("ffnn"), id3);
  EXPECT_FALSE(m.find_latest("absent").has_value());
}

// ---------------------------------------------------------------- router --

struct router_rig {
  sim::simulation s;
  nn_manager m;
  inference_router r{s, m, router_config{}};
};

TEST(InferenceRouter, InstallThenSwitchActivates) {
  router_rig rig;
  const auto id = rig.m.register_model(tiny_snapshot("ffnn", 1));
  EXPECT_FALSE(rig.r.active().has_value());
  rig.r.install_standby(id);
  EXPECT_EQ(rig.r.standby(), id);
  rig.r.switch_active();
  EXPECT_EQ(rig.r.active(), id);
  EXPECT_FALSE(rig.r.standby().has_value());
  EXPECT_EQ(rig.r.switches(), 1u);
}

TEST(InferenceRouter, SwitchWithoutStandbyIsCountedNoop) {
  router_rig rig;
  // Nothing installed at all: the switch must not publish an empty active.
  EXPECT_DOUBLE_EQ(rig.r.switch_active(), 0.0);
  EXPECT_FALSE(rig.r.active().has_value());
  EXPECT_EQ(rig.r.switches(), 0u);
  EXPECT_EQ(rig.r.switch_noops(), 1u);

  // Active deployed, standby already consumed by a previous switch: a
  // spurious second switch must leave the active snapshot in place.
  const auto v1 = rig.m.register_model(tiny_snapshot("ffnn", 1));
  rig.r.install_standby(v1);
  rig.r.switch_active();
  ASSERT_EQ(rig.r.active(), v1);
  EXPECT_FALSE(rig.r.standby().has_value());
  rig.r.switch_active();  // no standby -> no-op
  EXPECT_EQ(rig.r.active(), v1);
  EXPECT_EQ(rig.r.route(7), v1);  // datapath still serves
  EXPECT_EQ(rig.r.switches(), 1u);
  EXPECT_EQ(rig.r.switch_noops(), 2u);
}

TEST(InferenceRouter, DoubleSwitchRoundTripRestoresActive) {
  router_rig rig;
  const auto v1 = rig.m.register_model(tiny_snapshot("ffnn", 1));
  const auto v2 = rig.m.register_model(tiny_snapshot("ffnn", 2));
  rig.r.install_standby(v1);
  rig.r.switch_active();

  // Install v2, flip to it, then re-install v1 and flip back: a full
  // round-trip must land exactly where it started, with both switches
  // counted and no stray standby left behind.
  rig.r.install_standby(v2);
  rig.r.switch_active();
  EXPECT_EQ(rig.r.active(), v2);
  rig.r.install_standby(v1);
  rig.r.switch_active();
  EXPECT_EQ(rig.r.active(), v1);
  EXPECT_FALSE(rig.r.standby().has_value());
  EXPECT_EQ(rig.r.switches(), 3u);
  EXPECT_EQ(rig.r.switch_noops(), 0u);
}

TEST(InferenceRouter, FlowCachePinsOldSnapshotAcrossSwitch) {
  // The paper's flow-consistency property: a flow keeps using the snapshot
  // that served its first packet even after an update switch.
  router_rig rig;
  const auto v1 = rig.m.register_model(tiny_snapshot("ffnn", 1));
  rig.r.install_standby(v1);
  rig.r.switch_active();
  EXPECT_EQ(rig.r.route(42), v1);  // miss -> pins v1

  const auto v2 = rig.m.register_model(tiny_snapshot("ffnn", 2));
  rig.r.install_standby(v2);
  rig.r.switch_active();
  EXPECT_EQ(rig.r.active(), v2);
  EXPECT_EQ(rig.r.route(42), v1);  // cached: still v1
  EXPECT_EQ(rig.r.route(43), v2);  // new flow: v2
  EXPECT_EQ(rig.r.cache_hits(), 1u);
  EXPECT_EQ(rig.r.cache_misses(), 2u);
}

TEST(InferenceRouter, OldModelRemovableOnlyAfterFlowsFinish) {
  router_rig rig;
  const auto v1 = rig.m.register_model(tiny_snapshot("ffnn", 1));
  rig.r.install_standby(v1);
  rig.r.switch_active();
  rig.r.route(42);
  const auto v2 = rig.m.register_model(tiny_snapshot("ffnn", 2));
  rig.r.install_standby(v2);
  rig.r.switch_active();
  EXPECT_FALSE(rig.m.try_remove(v1));  // flow 42 pins it (deferred unload)
  rig.r.flow_finished(42);             // FIN -> last ref drops -> unloaded
  EXPECT_EQ(rig.m.get(v1), nullptr);
}

TEST(InferenceRouter, DisabledFlowCacheAlwaysUsesActive) {
  sim::simulation s;
  nn_manager m;
  router_config cfg;
  cfg.flow_cache_enabled = false;
  inference_router r{s, m, cfg};
  const auto v1 = m.register_model(tiny_snapshot("ffnn", 1));
  r.install_standby(v1);
  r.switch_active();
  r.route(42);
  const auto v2 = m.register_model(tiny_snapshot("ffnn", 2));
  r.install_standby(v2);
  r.switch_active();
  EXPECT_EQ(r.route(42), v2);  // no pinning
  EXPECT_EQ(r.cache_size(), 0u);
}

TEST(InferenceRouter, IdleEntriesExpire) {
  sim::simulation s;
  nn_manager m;
  router_config cfg;
  cfg.cache_idle_timeout = 1.0;
  inference_router r{s, m, cfg};
  const auto v1 = m.register_model(tiny_snapshot("ffnn", 1));
  r.install_standby(v1);
  r.switch_active();
  r.route(42);
  EXPECT_EQ(r.cache_size(), 1u);
  s.schedule(2.0, []() {});
  s.run();
  EXPECT_EQ(r.expire_idle(), 1u);
  EXPECT_EQ(r.cache_size(), 0u);
}

TEST(InferenceRouter, RouteWithNothingActiveReturnsNullopt) {
  router_rig rig;
  EXPECT_FALSE(rig.r.route(1).has_value());
}

TEST(InferenceRouter, SwitchLockHeldNanoseconds) {
  router_rig rig;
  const auto v1 = rig.m.register_model(tiny_snapshot("ffnn", 1));
  rig.r.install_standby(v1);
  rig.r.switch_active();
  EXPECT_LE(rig.r.lock().total_hold_seconds(), 100e-9);
}

// ------------------------------------------------------------------ core --

struct core_rig {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  liteflow_core core{s, cpu, costs};
};

TEST(LiteflowCore, QueryRunsActiveSnapshot) {
  core_rig rig;
  rng g{5};
  const auto net = nn::make_ffnn_flow_size_net(g);
  const auto snap = codegen::generate_snapshot(net, "ffnn", 1);
  const auto id = rig.core.register_model(snap);
  rig.core.router().install_standby(id);
  rig.core.router().switch_active();

  std::vector<fp::s64> input(net.input_size(), 100);
  const auto direct = snap.program.infer(input);
  std::vector<fp::s64> via_query;
  rig.core.query_model(1, input, [&](std::vector<fp::s64> out) {
    via_query = std::move(out);
  });
  rig.s.run();
  EXPECT_EQ(via_query, direct);
  EXPECT_EQ(rig.core.queries(), 1u);
  // CPU was charged for the inference.
  EXPECT_GT(rig.cpu.busy_seconds(kernelsim::task_category::datapath), 0.0);
}

TEST(LiteflowCore, QueryWithoutModelReturnsEmpty) {
  core_rig rig;
  bool called = false;
  rig.core.query_model(1, {1, 2, 3}, [&](std::vector<fp::s64> out) {
    called = true;
    EXPECT_TRUE(out.empty());
  });
  rig.s.run();
  EXPECT_TRUE(called);
}

TEST(LiteflowCore, QueryWrongInputSizeReturnsEmpty) {
  core_rig rig;
  const auto id = rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.router().install_standby(id);
  rig.core.router().switch_active();
  const fp::s64 bad[] = {1, 2};
  EXPECT_TRUE(rig.core.query_model_sync(1, bad).empty());
}

TEST(LiteflowCore, RegisterIoValidatesShapes) {
  core_rig rig;
  const auto id = rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.router().install_standby(id);
  rig.core.router().switch_active();
  // FFNN: 8 inputs, 1 output.
  EXPECT_NO_THROW(rig.core.register_io({"sched", 8, 1}));
  EXPECT_THROW(rig.core.register_io({"bad", 4, 1}), std::invalid_argument);
  EXPECT_THROW(rig.core.register_io({"zero", 0, 1}), std::invalid_argument);
}

TEST(LiteflowCore, RegisterModelValidatesAgainstIoModules) {
  core_rig rig;
  rig.core.register_io({"sched", 8, 1});
  EXPECT_NO_THROW(rig.core.register_model(tiny_snapshot("ffnn", 1)));
  rng g{6};
  const auto aurora = nn::make_aurora_net(g);  // 30 inputs: incompatible
  EXPECT_THROW(
      rig.core.register_model(codegen::generate_snapshot(aurora, "a", 1)),
      std::invalid_argument);
}

TEST(LiteflowCore, UnregisterIo) {
  core_rig rig;
  const auto h = rig.core.register_io({"sched", 8, 1});
  EXPECT_EQ(rig.core.io_module_count(), 1u);
  EXPECT_TRUE(rig.core.unregister_io(h));
  EXPECT_FALSE(rig.core.unregister_io(h));
  EXPECT_EQ(rig.core.io_module_count(), 0u);
}

TEST(LiteflowCore, ActiveIoScale) {
  core_rig rig;
  EXPECT_EQ(rig.core.active_io_scale(), 0);
  const auto id = rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.router().install_standby(id);
  rig.core.router().switch_active();
  EXPECT_EQ(rig.core.active_io_scale(), 1000);
}

TEST(LiteflowCore, InstallStandbyUnloadsDisplacedCandidate) {
  core_rig rig;
  const auto a = rig.core.register_model(tiny_snapshot("ffnn", 1));
  const auto b = rig.core.register_model(tiny_snapshot("ffnn", 2));
  rig.core.install_standby(a);
  // B displaces A before A was ever switched in: A held only the slot ref,
  // so it unloads instead of piling up in the manager.
  rig.core.install_standby(b);
  EXPECT_EQ(rig.core.manager().get(a), nullptr);
  EXPECT_NE(rig.core.manager().get(b), nullptr);
  EXPECT_EQ(rig.core.router().standby(), b);
  EXPECT_FALSE(rig.core.router().active().has_value());
  // Re-installing the standby it already holds unloads nothing.
  rig.core.install_standby(b);
  EXPECT_NE(rig.core.manager().get(b), nullptr);
  EXPECT_EQ(rig.core.manager().installed_count(), 1u);
}

TEST(LiteflowCore, SwitchActiveAdmitsOnlyWithStandby) {
  core_rig rig;
  const auto id = rig.core.register_model(tiny_snapshot("ffnn", 1));
  rig.core.install_standby(id);
  EXPECT_TRUE(rig.core.switch_active().admitted);
  EXPECT_EQ(rig.core.router().active(), id);
  // No standby left: a counted no-op that keeps the active serving.
  const gate_result noop = rig.core.switch_active();
  EXPECT_FALSE(noop.admitted);
  EXPECT_EQ(noop.switch_wait, 0.0);
  EXPECT_EQ(rig.core.router().active(), id);
  EXPECT_EQ(rig.core.router().switch_noops(), 1u);
}

// --------------------------------------------------------------- batches --

TEST(BatchCollector, DeliversOnInterval) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector_config cfg;
  cfg.interval = 0.1;
  batch_collector bc{s, netlink, cfg};
  std::vector<std::size_t> batch_sizes;
  bc.set_consumer([&](std::vector<train_sample> batch) {
    batch_sizes.push_back(batch.size());
  });
  bc.start();
  for (int i = 0; i < 5; ++i) bc.collect({{1.0}, {2.0}, 0.0});
  s.run_until(0.15);
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 5u);
  EXPECT_EQ(bc.samples_delivered(), 5u);
  // Nothing new collected: no extra delivery.
  s.run_until(0.35);
  EXPECT_EQ(batch_sizes.size(), 1u);
}

TEST(BatchCollector, SingleMessagePerBatchNotPerSample) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector bc{s, netlink, {}};
  bc.set_consumer([](std::vector<train_sample>) {});
  bc.start();
  for (int i = 0; i < 100; ++i) bc.collect({{1.0}, {}, 0.0});
  s.run_until(0.15);
  EXPECT_EQ(netlink.one_way_messages(), 1u);  // the whole point of batching
}

TEST(BatchCollector, BufferCapDropsOldest) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector_config cfg;
  cfg.max_samples = 10;
  batch_collector bc{s, netlink, cfg};
  for (int i = 0; i < 25; ++i) bc.collect({{static_cast<double>(i)}, {}, 0.0});
  EXPECT_EQ(bc.pending(), 10u);
  EXPECT_EQ(bc.samples_dropped(), 15u);
}

TEST(BatchCollector, RejectsBadInterval) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector_config cfg;
  cfg.interval = 0.0;
  EXPECT_THROW(batch_collector(s, netlink, cfg), std::invalid_argument);
}

TEST(BatchCollector, SetIntervalRejectsNonPositive) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  batch_collector bc{s, netlink, {}};
  EXPECT_THROW(bc.set_interval(0.0), std::invalid_argument);
  EXPECT_THROW(bc.set_interval(-0.1), std::invalid_argument);
  // NaN fails any comparison, so a naive `interval <= 0` check lets it
  // through and the delivery loop reschedules itself at t = NaN forever.
  EXPECT_THROW(bc.set_interval(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_NO_THROW(bc.set_interval(0.25));
}

// ---------------------------------------------------------- sync evaluator --

TEST(SyncEvaluator, ConvergenceNeedsFullStableWindow) {
  sync_config cfg;
  cfg.stability_window = 4;
  cfg.stability_threshold = 0.2;
  sync_evaluator ev{cfg};
  EXPECT_FALSE(ev.converged());
  for (const double v : {10.0, 1.0, 5.0, 8.0}) ev.record_stability(v);
  EXPECT_FALSE(ev.converged());  // wild swings
  for (const double v : {7.0, 7.1, 7.05, 6.95}) ev.record_stability(v);
  EXPECT_TRUE(ev.converged());
  ev.reset_stability();
  EXPECT_FALSE(ev.converged());
}

TEST(SyncEvaluator, FullDecisionCombinesBothAxes) {
  rng g{7};
  auto net = nn::make_aurora_net(g);
  const auto installed = quant::quantize(net);
  sync_config cfg;
  cfg.stability_window = 2;
  sync_evaluator ev{cfg};
  ev.record_stability(1.0);
  ev.record_stability(1.01);
  std::vector<std::vector<double>> batch{std::vector<double>(30, 0.1)};

  // Model unchanged: converged but not necessary.
  auto d = ev.evaluate(net, installed, batch);
  EXPECT_TRUE(d.converged);
  EXPECT_FALSE(d.necessary);
  EXPECT_FALSE(d.should_update());

  // Drift the model: now necessary too.
  auto params = net.parameters();
  for (auto& p : params) p += 0.5;
  net.set_parameters(params);
  d = ev.evaluate(net, installed, batch);
  EXPECT_TRUE(d.necessary);
  EXPECT_TRUE(d.should_update());
}

TEST(SyncEvaluator, RejectsBadConfig) {
  sync_config bad;
  bad.stability_window = 1;
  EXPECT_THROW(sync_evaluator{bad}, std::invalid_argument);
  sync_config bad2;
  bad2.output_min = 1.0;
  bad2.output_max = 0.0;
  EXPECT_THROW(sync_evaluator{bad2}, std::invalid_argument);
}

TEST(SyncEvaluator, PartialWindowExposesSpreadButNeverConverges) {
  sync_config cfg;
  cfg.stability_window = 4;
  cfg.stability_threshold = 0.2;
  sync_evaluator ev{cfg};
  EXPECT_EQ(ev.stability_samples(), 0u);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);  // no samples

  ev.record_stability(5.0);
  EXPECT_EQ(ev.stability_samples(), 1u);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);  // one sample: no spread yet

  ev.record_stability(5.0);
  EXPECT_EQ(ev.stability_samples(), 2u);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);  // identical values
  // Dead-flat metric, but only half the window — correctness demands the
  // full window before declaring convergence.
  EXPECT_FALSE(ev.converged());

  ev.record_stability(5.0);
  ev.record_stability(10.0);
  EXPECT_EQ(ev.stability_samples(), 4u);
  // (10 - 5) / max(|10|, |5|) = 0.5, above the threshold.
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 5.0 / 10.0);
  EXPECT_FALSE(ev.converged());

  // The window slides: four flat samples push the spike out.
  for (int i = 0; i < 4; ++i) ev.record_stability(10.0);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);
  EXPECT_TRUE(ev.converged());
}

TEST(SyncEvaluator, ZeroMeanRewardSeriesDoesNotBlowUpSpread) {
  // Regression: rewards oscillating tightly around zero (e.g. a normalized
  // throughput-minus-baseline signal) have a near-zero *mean*, and the old
  // mean-normalized spread divided ~0.02 by ~1e-9 — a spread in the
  // millions that could never converge.  Normalizing by the window's
  // extreme magnitude keeps the spread bounded (<= 2) and scale-free.
  sync_config cfg;
  cfg.stability_window = 4;
  cfg.stability_threshold = 0.2;
  sync_evaluator ev{cfg};
  for (const double v : {0.01, -0.01, 0.01, -0.01}) ev.record_stability(v);
  // (0.01 - (-0.01)) / max(|0.01|, |-0.01|) = 2: the hard upper bound for
  // a sign-straddling window, not a runaway ratio.
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 2.0);
  EXPECT_FALSE(ev.converged());  // still genuinely unstable in relative terms

  // An all-zero window is perfectly stable, not a division blowup.
  for (int i = 0; i < 4; ++i) ev.record_stability(0.0);
  EXPECT_DOUBLE_EQ(ev.stability_spread(), 0.0);
  EXPECT_TRUE(ev.converged());

  // Tight oscillation around a nonzero level stays proportional: the same
  // +-0.01 wiggle on a 1.0 baseline is a 2% spread and converges.
  for (const double v : {1.01, 0.99, 1.01, 0.99}) ev.record_stability(v);
  EXPECT_NEAR(ev.stability_spread(), 0.02 / 1.01, 1e-12);
  EXPECT_TRUE(ev.converged());
}

TEST(SyncEvaluator, NecessityAtExactThresholdIsNotNecessary) {
  // §3.3: sync only when min fidelity loss *exceeds* alpha * (Omax - Omin).
  // Equality means the drift bound is met, not beaten — no update.
  quant::fidelity_report rep;
  rep.samples = 8;  // an empty report is never "necessary"
  rep.min_loss = 0.05 * 2.0;  // alpha=0.05, Omax-Omin=2 -> exactly at bound
  rep.mean_loss = rep.max_loss = rep.min_loss;
  EXPECT_FALSE(quant::update_necessary(rep, 0.05, -1.0, 1.0));
  quant::fidelity_report empty;
  empty.min_loss = 1.0;  // huge drift but zero samples: still no
  EXPECT_FALSE(quant::update_necessary(empty, 0.05, -1.0, 1.0));
  rep.min_loss = std::nextafter(0.1, 1.0);  // one ulp above
  EXPECT_TRUE(quant::update_necessary(rep, 0.05, -1.0, 1.0));
  rep.min_loss = std::nextafter(0.1, 0.0);  // one ulp below
  EXPECT_FALSE(quant::update_necessary(rep, 0.05, -1.0, 1.0));
}

// ------------------------------------------------------ userspace service --

/// Scripted adaptation interface: each adapt() call shifts the model by a
/// controllable amount; stability value is scripted.
class stub_adapter final : public adaptation_interface {
 public:
  stub_adapter() {
    rng g{11};
    model_ = std::make_unique<nn::mlp>(nn::make_ffnn_flow_size_net(g));
  }
  std::string freeze_model() override {
    return nn::save_mlp_to_string(*model_);
  }
  double stability_value() const override { return stability; }
  std::vector<double> evaluate(std::span<const double> x) const override {
    return model_->forward(x);
  }
  void adapt(std::span<const core::train_sample> batch) override {
    ++adapt_calls;
    last_batch_size = batch.size();
    if (drift_per_batch != 0.0) {
      auto p = model_->parameters();
      for (auto& w : p) w += drift_per_batch;
      model_->set_parameters(p);
    }
  }
  std::size_t parameter_count() const override {
    return model_->parameter_count();
  }

  std::unique_ptr<nn::mlp> model_;
  double stability = 1.0;
  double drift_per_batch = 0.0;
  int adapt_calls = 0;
  std::size_t last_batch_size = 0;
};

struct service_rig {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  kernelsim::crossspace_channel netlink{s, cpu, costs,
                                        kernelsim::channel_kind::netlink};
  liteflow_core core{s, cpu, costs};
  batch_collector collector{s, netlink, batch_collector_config{}};
  stub_adapter adapter;
  service_config cfg;

  std::unique_ptr<userspace_service> make() {
    cfg.model_name = "stub";
    cfg.sync.output_min = 0.0;
    cfg.sync.output_max = 1.0;
    cfg.sync.stability_window = 2;
    return std::make_unique<userspace_service>(s, cpu, costs, netlink, core,
                                               collector, adapter, cfg);
  }

  void feed_samples(int n) {
    for (int i = 0; i < n; ++i) {
      collector.collect({std::vector<double>(8, 0.1), {0.5}, 0.0});
    }
  }
};

TEST(UserspaceService, StartInstallsInitialSnapshot) {
  service_rig rig;
  auto svc = rig.make();
  svc->start();
  rig.s.run_until(0.05);
  EXPECT_TRUE(rig.core.router().active().has_value());
  EXPECT_EQ(svc->current_version(), 1u);
  EXPECT_EQ(rig.core.active_io_scale(), 1000);
}

TEST(UserspaceService, AdaptsOnEveryBatch) {
  service_rig rig;
  auto svc = rig.make();
  svc->start();
  rig.feed_samples(10);
  rig.s.run_until(0.15);
  EXPECT_EQ(rig.adapter.adapt_calls, 1);
  EXPECT_EQ(rig.adapter.last_batch_size, 10u);
  rig.feed_samples(7);
  rig.s.run_until(0.25);
  EXPECT_EQ(rig.adapter.adapt_calls, 2);
}

TEST(UserspaceService, NoUpdateWhileModelUnchanged) {
  service_rig rig;
  auto svc = rig.make();
  svc->start();
  for (int round = 0; round < 5; ++round) {
    rig.feed_samples(8);
    rig.s.run_until(0.1 * (round + 1) + 0.05);
  }
  EXPECT_EQ(svc->snapshot_updates(), 0u);
  EXPECT_GT(svc->skipped_not_necessary(), 0u);
  EXPECT_EQ(svc->current_version(), 1u);
}

TEST(UserspaceService, UpdatesAfterDriftAndConvergence) {
  service_rig rig;
  rig.adapter.drift_per_batch = 0.2;  // model moves away from snapshot
  auto svc = rig.make();
  svc->start();
  for (int round = 0; round < 6; ++round) {
    rig.feed_samples(8);
    rig.s.run_until(0.1 * (round + 1) + 0.05);
  }
  EXPECT_GE(svc->snapshot_updates(), 1u);
  EXPECT_GT(svc->current_version(), 1u);
  // The router's active snapshot got replaced.
  const auto active = rig.core.router().active();
  ASSERT_TRUE(active.has_value());
  EXPECT_GT(rig.core.manager().get(*active)->version, 1u);
}

TEST(UserspaceService, UnstableMetricBlocksUpdate) {
  service_rig rig;
  rig.adapter.drift_per_batch = 0.2;
  auto svc = rig.make();
  svc->start();
  int round = 0;
  for (; round < 6; ++round) {
    // Oscillate the stability metric: exploration has not converged.
    rig.adapter.stability = (round % 2 == 0) ? 1.0 : 10.0;
    rig.feed_samples(8);
    rig.s.run_until(0.1 * (round + 1) + 0.05);
  }
  EXPECT_EQ(svc->snapshot_updates(), 0u);
  EXPECT_GT(svc->skipped_not_converged(), 0u);
}

TEST(UserspaceService, AdaptationDisabledDoesNothing) {
  service_rig rig;
  rig.cfg.adaptation_enabled = false;
  rig.adapter.drift_per_batch = 0.5;
  auto svc = rig.make();
  svc->start();
  for (int round = 0; round < 4; ++round) {
    rig.feed_samples(8);
    rig.s.run_until(0.1 * (round + 1) + 0.05);
  }
  EXPECT_EQ(rig.adapter.adapt_calls, 0);
  EXPECT_EQ(svc->snapshot_updates(), 0u);
  EXPECT_EQ(svc->current_version(), 1u);
}

}  // namespace

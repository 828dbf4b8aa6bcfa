// Cross-module integration tests: determinism of whole experiments, the
// full LiteFlow pipeline (collect -> batch -> adapt -> sync -> install ->
// switch) with a real RL slow path, lf_unregister_model semantics, and the
// generated-code path exercised through the live core module.
#include <gtest/gtest.h>

#include "apps/cc/cc_experiment.hpp"
#include "apps/common/liteflow_stack.hpp"
#include "apps/sched/flow_sched.hpp"
#include "codegen/compiled_snapshot.hpp"
#include "netsim/topology.hpp"
#include "nn/serialize.hpp"

namespace {

using namespace lf;
using namespace lf::apps;

// ------------------------------------------------------------ determinism --

TEST(Determinism, IdenticalSeedsGiveIdenticalExperiments) {
  auto run_once = []() {
    cc_single_flow_config cfg;
    cfg.scheme = cc_scheme::lf_aurora;
    cfg.duration = 2.0;
    cfg.warmup = 0.5;
    cfg.pretrain_iterations = 100;
    cfg.net.bottleneck_bps = 200e6;
    cfg.seed = 12345;
    return run_cc_single_flow(cfg);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.mean_goodput, b.mean_goodput);
  EXPECT_DOUBLE_EQ(a.stddev_goodput, b.stddev_goodput);
  EXPECT_EQ(a.snapshot_updates, b.snapshot_updates);
  ASSERT_EQ(a.goodput.size(), b.goodput.size());
  for (std::size_t i = 0; i < a.goodput.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.goodput.points()[i].second,
                     b.goodput.points()[i].second);
  }
}

TEST(Determinism, DifferentSeedsDiffer) {
  auto run_with_seed = [](std::uint64_t seed) {
    cc_single_flow_config cfg;
    cfg.scheme = cc_scheme::lf_aurora;
    cfg.duration = 2.0;
    cfg.warmup = 0.5;
    cfg.pretrain_iterations = 100;
    cfg.net.bottleneck_bps = 200e6;
    cfg.seed = seed;
    return run_cc_single_flow(cfg).mean_goodput;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

// --------------------------------------------------- module lifecycle e2e --

TEST(ModuleLifecycle, UnregisterByNameVersion) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  rng g{3};
  const auto net = nn::make_ffnn_flow_size_net(g);
  core.register_model(codegen::generate_snapshot(net, "m", 1));
  core.register_model(codegen::generate_snapshot(net, "m", 2));
  EXPECT_EQ(core.manager().installed_count(), 2u);
  EXPECT_TRUE(core.unregister_model("m", 1));
  EXPECT_FALSE(core.unregister_model("m", 1));  // already gone
  EXPECT_FALSE(core.unregister_model("m", 9));  // never existed
  EXPECT_EQ(core.manager().installed_count(), 1u);
}

TEST(ModuleLifecycle, UnregisterDeferredWhileQueryInFlight) {
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  rng g{4};
  const auto net = nn::make_ffnn_flow_size_net(g);
  const auto id = core.register_model(codegen::generate_snapshot(net, "m", 1));
  core.router().install_standby(id);
  core.router().switch_active();

  // Saturate the CPU so the query stays queued, then unregister mid-flight.
  cpu.submit(kernelsim::task_category::other, 1e-3);
  std::vector<fp::s64> out;
  core.query_model(7, std::vector<fp::s64>(net.input_size(), 100),
                   [&](std::vector<fp::s64> o) { out = std::move(o); });
  // Router's active slot holds one ref + the in-flight query holds another.
  EXPECT_FALSE(core.unregister_model("m", 1));
  s.run();
  // The query completed against the pinned module despite the rmmod.
  EXPECT_EQ(out.size(), 1u);
}

// ------------------------------------------------- full slow-path pipeline --

TEST(Pipeline, EndToEndAdaptationUpdatesSnapshotAndChangesOutputs) {
  // A supervised adapter whose target function changes mid-run: the full
  // LiteFlow loop must propagate the change into the kernel snapshot.
  sim::simulation s;
  kernelsim::cost_model costs;
  netsim::dumbbell net{s, {}};
  auto& h = net.sender();

  rng g{5};
  supervised_adapter adapter{nn::make_ffnn_flow_size_net(g), 1e-2, 30, 5};
  // Pretrain to output ~0.2 everywhere.
  std::vector<nn::training_sample> initial;
  rng xs{6};
  for (int i = 0; i < 128; ++i) {
    std::vector<double> x(8);
    for (auto& v : x) v = xs.uniform(0.0, 1.0);
    initial.push_back({x, {0.2}});
  }
  adapter.pretrain(initial, 200);

  liteflow_stack_options opts;
  opts.model_name = "pipeline";
  opts.batch_interval = 0.05;
  opts.sync.output_min = 0.0;
  opts.sync.output_max = 1.0;
  opts.sync.stability_window = 3;
  liteflow_stack stack{h, adapter, opts};
  stack.start();
  s.run_until(0.01);

  const fp::s64 scale = stack.core().active_io_scale();
  std::vector<fp::s64> probe(8, scale / 2);  // x = 0.5 everywhere
  const auto before = stack.core().query_model_sync(1, probe);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_NEAR(static_cast<double>(before[0]) / static_cast<double>(scale), 0.2,
              0.05);

  // Feed batches whose labels moved to ~0.8: the slow path retrains and the
  // service must find the update both converged and necessary.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      core::train_sample sample;
      sample.features.assign(8, 0.5);
      sample.aux = {0.8};
      stack.collector().collect(std::move(sample));
    }
    s.run_until(s.now() + 0.06);
  }
  EXPECT_GE(stack.service().snapshot_updates(), 1u);
  const auto after = stack.core().query_model_sync(2, probe);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NEAR(static_cast<double>(after[0]) / static_cast<double>(scale), 0.8,
              0.1);
  // Version advanced and exactly one model remains installed (old ones
  // unloaded once unreferenced).
  EXPECT_GT(stack.service().current_version(), 1u);
}

TEST(Pipeline, GeneratedSourceOfLiveSnapshotCompilesAndMatches) {
  if (!codegen::compiler_available()) GTEST_SKIP() << "no gcc";
  sim::simulation s;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{s};
  core::liteflow_core core{s, cpu, costs};
  rng g{8};
  const auto net = nn::make_lb_mlp_net(g, 2);
  const auto id = core.register_model(codegen::generate_snapshot(net, "lb", 1));
  core.router().install_standby(id);
  core.router().switch_active();

  const auto* snap = core.manager().get(*core.router().active());
  ASSERT_NE(snap, nullptr);
  const auto compiled = codegen::compiled_snapshot::compile(*snap);
  std::vector<fp::s64> x(net.input_size());
  rng xs{9};
  for (auto& v : x) v = xs.uniform_int(-1000, 1000);
  EXPECT_EQ(compiled.infer(x, net.output_size()),
            core.query_model_sync(1, x));
}

// --------------------------------------------------------- cc overhead e2e --

TEST(Integration, LiteflowOverheadTracksBbr) {
  // Small-scale Fig. 13 sanity: LF-Aurora's aggregate throughput lands
  // within 15% of BBR's in a CPU-bound setting.
  cc_overhead_config bbr_cfg;
  bbr_cfg.scheme = cc_scheme::bbr;
  bbr_cfg.n_flows = 4;
  bbr_cfg.duration = 1.5;
  const double bbr = run_cc_overhead(bbr_cfg).aggregate_bps;

  cc_overhead_config lf_cfg;
  lf_cfg.scheme = cc_scheme::lf_aurora;
  lf_cfg.n_flows = 4;
  lf_cfg.duration = 1.5;
  lf_cfg.pretrain_iterations = 400;
  const double lf = run_cc_overhead(lf_cfg).aggregate_bps;
  EXPECT_GT(lf, 0.8 * bbr);
}

TEST(Integration, KernelTrainingCrushesThroughput) {
  // §2.3's anti-pattern sanity: in-kernel SGD costs the datapath dearly.
  cc_overhead_config bbr_cfg;
  bbr_cfg.scheme = cc_scheme::bbr;
  bbr_cfg.n_flows = 6;
  bbr_cfg.duration = 0.8;
  const double bbr = run_cc_overhead(bbr_cfg).aggregate_bps;

  cc_overhead_config kt_cfg;
  kt_cfg.scheme = cc_scheme::kernel_train_aurora;
  kt_cfg.n_flows = 6;
  kt_cfg.duration = 0.8;
  kt_cfg.pretrain_iterations = 150;
  const double kt = run_cc_overhead(kt_cfg).aggregate_bps;
  EXPECT_LT(kt, 0.6 * bbr);
}

}  // namespace

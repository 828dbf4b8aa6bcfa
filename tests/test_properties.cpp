// Property-based tests: invariants that must hold across randomized inputs,
// checked with parameterized seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codegen/c_emitter.hpp"
#include "codegen/snapshot.hpp"
#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/node.hpp"
#include "nn/serialize.hpp"
#include "quant/quantizer.hpp"
#include "transport/cong_ctrl.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace lf;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// ---------------------------------------------------------- reassembly --

/// Property: delivering a flow's segments in ANY order, with arbitrary
/// duplication, yields exactly the flow's byte count and a complete flow.
TEST_P(SeedSweep, ReassemblyIsOrderAndDuplicationInvariant) {
  rng gen{GetParam()};
  sim::simulation s;
  kernelsim::cost_model costs;
  netsim::host h{s, 1, "h", costs};
  h.set_cpu_gating(false);

  // A sink for the generated ACKs.
  class null_node final : public netsim::node {
   public:
    null_node() : node{"null"} {}
    void deliver(netsim::packet) override {}
  } sink;
  netsim::link_config lc;
  netsim::link uplink{s, lc, sink};
  h.set_egress(&uplink);

  const std::uint64_t total = 40'000 + gen.uniform_int(0, 5000);
  const std::uint32_t mss = 1460;
  struct seg {
    std::uint64_t off;
    std::uint32_t len;
  };
  std::vector<seg> segments;
  for (std::uint64_t off = 0; off < total; off += mss) {
    segments.push_back(
        {off, static_cast<std::uint32_t>(std::min<std::uint64_t>(mss, total - off))});
  }
  // Duplicate a random subset, then shuffle everything.
  const auto n_dup = static_cast<std::size_t>(gen.uniform_int(0, 10));
  for (std::size_t i = 0; i < n_dup; ++i) {
    segments.push_back(segments[static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(segments.size()) - 1))]);
  }
  gen.shuffle(segments);

  bool completed = false;
  h.set_completion_hook(
      [&](netsim::flow_id_t, const netsim::receive_state&) { completed = true; });
  for (const auto& sg : segments) {
    netsim::packet p;
    p.flow_id = 9;
    p.seq = sg.off;
    p.payload_bytes = sg.len;
    p.wire_bytes = sg.len + netsim::k_header_bytes;
    p.fin = (sg.off + sg.len == total);
    h.deliver(p);
  }
  s.run();
  EXPECT_EQ(h.flow_state(9)->delivered_payload, total);
  EXPECT_EQ(h.flow_state(9)->next_expected, total);
  EXPECT_TRUE(completed);
}

// --------------------------------------------------------- quantization --

/// Property: quantized inference error is bounded for every paper net and
/// every input in the training range, at the default scaling.
TEST_P(SeedSweep, QuantizedErrorBounded) {
  rng gen{GetParam() * 31 + 7};
  nn::mlp net = [&]() {
    switch (GetParam() % 4) {
      case 0:
        return nn::make_aurora_net(gen);
      case 1:
        return nn::make_mocc_net(gen);
      case 2:
        return nn::make_ffnn_flow_size_net(gen);
      default:
        return nn::make_lb_mlp_net(gen, 2 + GetParam() % 3);
    }
  }();
  const auto q = quant::quantize(net);
  rng xs{GetParam() * 17 + 3};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(net.input_size());
    for (auto& v : x) v = xs.uniform(-2, 2);
    const auto y = net.forward(x);
    const auto yq = q.infer_float(x);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(yq[i], y[i], 0.05) << "output " << i;
    }
  }
}

/// Property: serialization round-trips preserve forward outputs exactly.
TEST_P(SeedSweep, SerializationRoundTripExact) {
  rng gen{GetParam() * 101 + 13};
  const auto net = nn::make_lb_mlp_net(gen, 2 + GetParam() % 4);
  const auto loaded = nn::load_mlp_from_string(nn::save_mlp_to_string(net));
  rng xs{GetParam()};
  std::vector<double> x(net.input_size());
  for (auto& v : x) v = xs.uniform(-3, 3);
  EXPECT_EQ(net.forward(x), loaded.forward(x));
}

/// Property: snapshot generation is deterministic — same model, same
/// config, byte-identical rendered C source and integer program output.
TEST_P(SeedSweep, SnapshotGenerationDeterministic) {
  rng gen{GetParam() + 500};
  const auto net = nn::make_ffnn_flow_size_net(gen);
  const auto a = codegen::generate_snapshot(net, "m", 1);
  const auto b = codegen::generate_snapshot(net, "m", 1);
  EXPECT_EQ(codegen::emit_c_source(a), codegen::emit_c_source(b));
  std::vector<fp::s64> x(net.input_size(), 321);
  EXPECT_EQ(a.program.infer(x), b.program.infer(x));
}

// -------------------------------------------------------------- rate rule --

/// Property: Aurora's rate rule is exactly inverse-symmetric (a then -a
/// returns to the start) and clamps monotonically.
TEST_P(SeedSweep, RateActionInverseSymmetry) {
  rng gen{GetParam() + 900};
  for (int trial = 0; trial < 50; ++trial) {
    const double rate = gen.uniform(1e6, 1e9);
    const double a = gen.uniform(0.0, 1.0);
    const double up = transport::apply_rate_action(rate, a, 0.05, 1.0, 1e12);
    const double back =
        transport::apply_rate_action(up, -a, 0.05, 1.0, 1e12);
    EXPECT_NEAR(back, rate, rate * 1e-9);
    EXPECT_GE(up, rate);
  }
}

// ------------------------------------------------------------ statistics --

/// Property: percentile() is monotone in p and bounded by min/max.
TEST_P(SeedSweep, PercentileMonotoneAndBounded) {
  rng gen{GetParam() + 1300};
  std::vector<double> xs(200);
  for (auto& v : xs) v = gen.normal(0, 10);
  double prev = -1e300;
  for (double p = 0; p <= 100; p += 7) {
    const double v = percentile(xs, p);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, *std::min_element(xs.begin(), xs.end()));
    EXPECT_LE(v, *std::max_element(xs.begin(), xs.end()));
    prev = v;
  }
}

/// Property: empirical_cdf quantile/cdf are mutually consistent.
TEST_P(SeedSweep, CdfQuantileConsistency) {
  rng gen{GetParam() + 1700};
  std::vector<double> xs(100);
  for (auto& v : xs) v = gen.pareto(1.3, 1000.0);
  const auto cdf = empirical_cdf::from_samples(xs);
  for (double u = 0.05; u < 1.0; u += 0.1) {
    const double x = cdf.quantile(u);
    EXPECT_NEAR(cdf.cdf(x), u, 0.06);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace

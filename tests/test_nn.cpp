// Unit tests for src/nn: activations, dense layers, MLP backprop (checked
// against finite differences), losses, optimizers, trainer, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::nn;

// FNV-1a over the bytes of a double vector: equal hashes mean bit-identical
// values.
std::uint64_t fnv1a(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// ------------------------------------------------------------ activation --

class ActivationGradCheck
    : public ::testing::TestWithParam<std::tuple<activation, double>> {};

TEST_P(ActivationGradCheck, MatchesFiniteDifference) {
  const auto [act, x] = GetParam();
  const double h = 1e-6;
  const double fd = (activate(act, x + h) - activate(act, x - h)) / (2 * h);
  EXPECT_NEAR(activate_grad(act, x), fd, 1e-4)
      << to_string(act) << " at x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ActivationGradCheck,
    ::testing::Combine(::testing::Values(activation::linear, activation::relu,
                                         activation::tanh_act,
                                         activation::sigmoid),
                       // Avoid relu's kink at exactly 0.
                       ::testing::Values(-2.0, -0.5, 0.3, 1.7, 4.0)));

TEST(Activation, KnownValues) {
  EXPECT_DOUBLE_EQ(activate(activation::linear, 3.5), 3.5);
  EXPECT_DOUBLE_EQ(activate(activation::relu, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(activation::relu, 2.0), 2.0);
  EXPECT_NEAR(activate(activation::tanh_act, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(activate(activation::sigmoid, 0.0), 0.5, 1e-12);
}

TEST(Activation, StringRoundTrip) {
  for (const auto a : {activation::linear, activation::relu,
                       activation::tanh_act, activation::sigmoid}) {
    EXPECT_EQ(activation_from_string(to_string(a)), a);
  }
  EXPECT_THROW(activation_from_string("gelu"), std::invalid_argument);
}

// ----------------------------------------------------------------- dense --

TEST(DenseLayer, ForwardComputesAffine) {
  dense_layer layer{2, 1, activation::linear};
  layer.weights()[0] = 2.0;
  layer.weights()[1] = -3.0;
  layer.biases()[0] = 0.5;
  const double x[] = {1.0, 2.0};
  double y[1];
  layer.forward(x, y, {});
  EXPECT_DOUBLE_EQ(y[0], 2.0 - 6.0 + 0.5);
}

TEST(DenseLayer, ForwardAppliesActivation) {
  dense_layer layer{1, 1, activation::relu};
  layer.weights()[0] = 1.0;
  layer.biases()[0] = -5.0;
  const double x[] = {2.0};
  double y[1];
  layer.forward(x, y, {});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(DenseLayer, RejectsSizeMismatch) {
  dense_layer layer{2, 3, activation::linear};
  const double x[] = {1.0};
  double y[3];
  EXPECT_THROW(layer.forward(x, y, {}), std::invalid_argument);
}

TEST(DenseLayer, XavierInitBounded) {
  rng g{5};
  dense_layer layer{64, 32, activation::tanh_act, g};
  const double limit = std::sqrt(6.0 / (64 + 32));
  for (const double w : layer.weights()) {
    EXPECT_LE(std::abs(w), limit + 1e-12);
  }
  for (const double b : layer.biases()) EXPECT_DOUBLE_EQ(b, 0.0);
}

// ------------------------------------------------------------------- mlp --

TEST(Mlp, ForwardShapeAndDeterminism) {
  rng g{3};
  auto net = make_aurora_net(g);
  EXPECT_EQ(net.input_size(), 30u);
  EXPECT_EQ(net.output_size(), 1u);
  std::vector<double> x(30, 0.1);
  const auto y1 = net.forward(x);
  const auto y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 1u);
  EXPECT_DOUBLE_EQ(y1[0], y2[0]);
  EXPECT_LE(std::abs(y1[0]), 1.0);  // tanh output head
}

TEST(Mlp, ParameterRoundTrip) {
  rng g{4};
  auto net = make_ffnn_flow_size_net(g);
  auto params = net.parameters();
  EXPECT_EQ(params.size(), net.parameter_count());
  params[0] = 123.0;
  net.set_parameters(params);
  EXPECT_DOUBLE_EQ(net.parameters()[0], 123.0);
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  rng g{6};
  const layer_spec specs[] = {{4, activation::tanh_act},
                              {3, activation::relu},
                              {2, activation::linear}};
  mlp net{3, specs, g};
  const std::vector<double> x{0.3, -0.7, 1.1};
  const std::vector<double> grad_out{1.0, -0.5};  // arbitrary dL/dy

  std::vector<double> grad(net.parameter_count(), 0.0);
  net.accumulate_gradient(x, grad_out, grad);

  // Finite-difference check on a scattering of parameters.
  auto params = net.parameters();
  const double h = 1e-6;
  auto loss_at = [&](const std::vector<double>& p) {
    mlp m{3, specs};
    m.set_parameters(p);
    const auto y = m.forward(x);
    return y[0] * grad_out[0] + y[1] * grad_out[1];
  };
  for (std::size_t i = 0; i < params.size(); i += 7) {
    auto p = params;
    p[i] += h;
    const double up = loss_at(p);
    p[i] -= 2 * h;
    const double dn = loss_at(p);
    const double fd = (up - dn) / (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-4) << "param " << i;
  }
}

TEST(Mlp, SameStructureDetectsMismatch) {
  rng g{8};
  auto a = make_aurora_net(g);
  auto b = make_aurora_net(g);
  auto c = make_mocc_net(g);
  EXPECT_TRUE(a.same_structure(b));
  EXPECT_FALSE(a.same_structure(c));
  EXPECT_THROW((void)a.parameter_distance(c), std::invalid_argument);
}

TEST(Mlp, ParameterDistanceZeroForCopies) {
  rng g{8};
  auto a = make_aurora_net(g);
  auto b = a;
  EXPECT_DOUBLE_EQ(a.parameter_distance(b), 0.0);
  auto p = b.parameters();
  p[0] += 1.0;
  b.set_parameters(p);
  EXPECT_GT(a.parameter_distance(b), 0.0);
}

TEST(Mlp, DescribeMentionsShapes) {
  rng g{8};
  const auto d = make_aurora_net(g).describe();
  EXPECT_NE(d.find("30"), std::string::npos);
  EXPECT_NE(d.find("32(tanh)"), std::string::npos);
}

// ------------------------------------------------------------- mlp tape --

// The per-sample path the tape replaced, kept here as the reference: a
// forward pass caching each layer's input and pre-activation, then a
// backward pass that recomputes f'(pre) from the pre-activation alone.
double reference_activate(activation a, double x) {
  switch (a) {
    case activation::linear:
      return x;
    case activation::relu:
      return x > 0.0 ? x : 0.0;
    case activation::tanh_act:
      return std::tanh(x);
    case activation::sigmoid:
      return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double reference_activate_grad(activation a, double x) {
  switch (a) {
    case activation::linear:
      return 1.0;
    case activation::relu:
      return x > 0.0 ? 1.0 : 0.0;
    case activation::tanh_act: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case activation::sigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
  }
  return 1.0;
}

std::vector<double> reference_accumulate_gradient(
    const mlp& net, std::span<const double> x,
    std::span<const double> grad_out, std::span<double> grad) {
  std::vector<std::vector<double>> acts{{x.begin(), x.end()}};
  std::vector<std::vector<double>> pres;
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    const auto& layer = net.layer(li);
    const auto& in = acts.back();
    std::vector<double> pre(layer.output_size()), out(layer.output_size());
    for (std::size_t i = 0; i < layer.output_size(); ++i) {
      double acc = layer.biases()[i];
      for (std::size_t j = 0; j < layer.input_size(); ++j) {
        acc += layer.weight(i, j) * in[j];
      }
      pre[i] = acc;
      out[i] = reference_activate(layer.act(), acc);
    }
    pres.push_back(std::move(pre));
    acts.push_back(std::move(out));
  }
  std::vector<double> grad_cur(grad_out.begin(), grad_out.end());
  std::size_t off = grad.size();
  for (std::size_t li = net.layer_count(); li-- > 0;) {
    const auto& layer = net.layer(li);
    const std::size_t in_n = layer.input_size();
    off -= layer.param_count();
    double* gw = grad.data() + off;
    double* gb = gw + layer.weights().size();
    std::vector<double> grad_prev(in_n, 0.0);
    for (std::size_t i = 0; i < layer.output_size(); ++i) {
      const double dpre =
          grad_cur[i] * reference_activate_grad(layer.act(), pres[li][i]);
      gb[i] += dpre;
      for (std::size_t j = 0; j < in_n; ++j) {
        gw[i * in_n + j] += dpre * acts[li][j];
        if (li > 0) grad_prev[j] += dpre * layer.weight(i, j);
      }
    }
    grad_cur.swap(grad_prev);
  }
  return acts.back();
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Mlp, TapeMatchesPerSampleReferenceBitForBit) {
  rng g{61};
  const activation acts[] = {activation::linear, activation::relu,
                             activation::tanh_act, activation::sigmoid};
  bool saw_saturation = false;
  for (int net_i = 0; net_i < 40; ++net_i) {
    const auto depth = static_cast<std::size_t>(g.uniform_int(1, 4));
    std::vector<layer_spec> specs;
    for (std::size_t l = 0; l < depth; ++l) {
      specs.push_back({static_cast<std::size_t>(g.uniform_int(1, 12)),
                       acts[g.uniform_int(0, 3)]});
    }
    const auto in_n = static_cast<std::size_t>(g.uniform_int(1, 12));
    mlp net{in_n, specs, g};
    // Every other net gets weights and inputs large enough to drive
    // pre-activations far into tanh/sigmoid saturation (|pre| >= 40).
    const double scale = net_i % 2 == 0 ? 1.0 : 25.0;
    auto params = net.parameters();
    for (auto& p : params) p = g.uniform(-1.0, 1.0) * scale;
    net.set_parameters(params);

    std::vector<double> tape(net.tape_size());
    std::vector<double> scratch(net.backward_scratch_size());
    for (int sample = 0; sample < 5; ++sample) {
      std::vector<double> x(in_n), grad_out(net.output_size());
      for (auto& v : x) v = g.uniform(-3.0, 3.0);
      for (auto& v : grad_out) v = g.uniform(-2.0, 2.0);
      std::vector<double> grad_ref(net.parameter_count());
      for (auto& v : grad_ref) v = g.uniform(-1.0, 1.0);
      auto grad_tape = grad_ref;

      const auto y_ref =
          reference_accumulate_gradient(net, x, grad_out, grad_ref);
      const auto y_tape = net.forward_tape(x, tape);
      net.backward_tape(tape, grad_out, grad_tape, scratch);
      EXPECT_TRUE(same_bits(y_tape, y_ref)) << net.describe();
      EXPECT_TRUE(same_bits(grad_tape, grad_ref)) << net.describe();

      // The wrappers ride the same path.
      auto grad_wrap = grad_tape;
      auto grad_ref2 = grad_tape;
      reference_accumulate_gradient(net, x, grad_out, grad_ref2);
      EXPECT_TRUE(same_bits(net.accumulate_gradient(x, grad_out, grad_wrap),
                            y_ref));
      EXPECT_TRUE(same_bits(grad_wrap, grad_ref2));
      EXPECT_TRUE(same_bits(net.forward(x), y_ref));

      // Layer li's pre-activation follows the input and the (pre, output)
      // pairs of the layers before it.
      std::size_t off = in_n;
      for (std::size_t li = 0; li < net.layer_count(); ++li) {
        const auto& layer = net.layer(li);
        for (std::size_t i = 0; i < layer.output_size(); ++i) {
          if (layer.act() != activation::linear &&
              layer.act() != activation::relu &&
              std::abs(tape[off + i]) >= 40.0) {
            saw_saturation = true;
          }
        }
        off += 2 * layer.output_size();
      }
    }
  }
  EXPECT_TRUE(saw_saturation);
}

TEST(Mlp, ForwardTapeRejectsSizeMismatch) {
  rng g{62};
  auto net = make_aurora_net(g);
  std::vector<double> x(net.input_size(), 0.1);
  std::vector<double> tape(net.tape_size());
  std::vector<double> short_x(net.input_size() - 1, 0.1);
  std::vector<double> short_tape(net.tape_size() - 1);
  std::vector<double> long_tape(net.tape_size() + 1);
  EXPECT_THROW(net.forward_tape(short_x, tape), std::invalid_argument);
  EXPECT_THROW(net.forward_tape(x, short_tape), std::invalid_argument);
  EXPECT_THROW(net.forward_tape(x, long_tape), std::invalid_argument);
  EXPECT_THROW(net.tape_output(short_tape), std::invalid_argument);
  EXPECT_EQ(net.forward_tape(x, tape).size(), net.output_size());
}

TEST(Mlp, BackwardTapeRejectsSizeMismatch) {
  rng g{63};
  auto net = make_aurora_net(g);
  std::vector<double> x(net.input_size(), 0.1);
  std::vector<double> tape(net.tape_size());
  net.forward_tape(x, tape);
  std::vector<double> grad_out(net.output_size(), 1.0);
  std::vector<double> grad(net.parameter_count(), 0.0);
  std::vector<double> scratch(net.backward_scratch_size());
  std::vector<double> short_tape(net.tape_size() - 1);
  std::vector<double> long_grad_out(net.output_size() + 1, 1.0);
  std::vector<double> short_grad(net.parameter_count() - 1, 0.0);
  std::vector<double> long_grad(net.parameter_count() + 1, 0.0);
  std::vector<double> short_scratch(net.backward_scratch_size() - 1);
  EXPECT_THROW(net.backward_tape(short_tape, grad_out, grad, scratch),
               std::invalid_argument);
  EXPECT_THROW(net.backward_tape(tape, long_grad_out, grad, scratch),
               std::invalid_argument);
  EXPECT_THROW(net.backward_tape(tape, std::span<const double>{}, grad,
                                 scratch),
               std::invalid_argument);
  EXPECT_THROW(net.backward_tape(tape, grad_out, short_grad, scratch),
               std::invalid_argument);
  EXPECT_THROW(net.backward_tape(tape, grad_out, long_grad, scratch),
               std::invalid_argument);
  EXPECT_THROW(net.backward_tape(tape, grad_out, grad, short_scratch),
               std::invalid_argument);
  // A rejected call writes nothing.
  for (const double v : grad) EXPECT_EQ(v, 0.0);
  for (const double v : long_grad) EXPECT_EQ(v, 0.0);
  net.backward_tape(tape, grad_out, grad, scratch);
}

TEST(Mlp, SingleLayerNeedsNoBackwardScratch) {
  rng g{64};
  const layer_spec specs[] = {{3, activation::tanh_act}};
  mlp net{4, specs, g};
  EXPECT_EQ(net.backward_scratch_size(), 0u);
  EXPECT_EQ(net.tape_size(), 4u + 2 * 3u);
  std::vector<double> x{0.1, 0.2, 0.3, 0.4}, tape(net.tape_size());
  std::vector<double> grad_out(3, 1.0), grad(net.parameter_count(), 0.0);
  net.forward_tape(x, tape);
  net.backward_tape(tape, grad_out, grad, {});
  EXPECT_NE(grad.back(), 0.0);
}

TEST(Mlp, AccumulateGradientRejectsSizeMismatch) {
  rng g{65};
  auto net = make_ffnn_flow_size_net(g);
  std::vector<double> x(net.input_size(), 0.1);
  std::vector<double> short_x(net.input_size() - 1, 0.1);
  std::vector<double> grad_out(net.output_size(), 1.0);
  std::vector<double> long_grad_out(net.output_size() + 1, 1.0);
  std::vector<double> grad(net.parameter_count(), 0.0);
  std::vector<double> short_grad(net.parameter_count() - 1, 0.0);
  EXPECT_THROW(net.accumulate_gradient(short_x, grad_out, grad),
               std::invalid_argument);
  EXPECT_THROW(net.accumulate_gradient(x, long_grad_out, grad),
               std::invalid_argument);
  EXPECT_THROW(net.accumulate_gradient(x, grad_out, short_grad),
               std::invalid_argument);
  for (const double v : grad) EXPECT_EQ(v, 0.0);
}

// ------------------------------------------------------------------ loss --

TEST(Loss, MseValueAndGradient) {
  const double pred[] = {1.0, 2.0};
  const double target[] = {0.0, 4.0};
  EXPECT_DOUBLE_EQ(loss_value(loss_kind::mse, pred, target), (1.0 + 4.0) / 2);
  const auto g = loss_gradient(loss_kind::mse, pred, target);
  EXPECT_DOUBLE_EQ(g[0], 2.0 * 1.0 / 2);
  EXPECT_DOUBLE_EQ(g[1], 2.0 * -2.0 / 2);
}

TEST(Loss, SmoothL1LinearTail) {
  const double pred[] = {10.0};
  const double target[] = {0.0};
  EXPECT_DOUBLE_EQ(loss_value(loss_kind::smooth_l1, pred, target), 9.5);
  EXPECT_DOUBLE_EQ(loss_gradient(loss_kind::smooth_l1, pred, target)[0], 1.0);
}

TEST(Loss, SmoothL1QuadraticCore) {
  const double pred[] = {0.5};
  const double target[] = {0.0};
  EXPECT_DOUBLE_EQ(loss_value(loss_kind::smooth_l1, pred, target), 0.125);
  EXPECT_DOUBLE_EQ(loss_gradient(loss_kind::smooth_l1, pred, target)[0], 0.5);
}

// ------------------------------------------------------------- optimizer --

TEST(Optimizer, SgdStepsDownhill) {
  sgd opt{0.1};
  std::vector<double> params{1.0};
  const std::vector<double> grads{2.0};
  opt.step(params, grads);
  EXPECT_DOUBLE_EQ(params[0], 0.8);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  adam opt{0.1};
  std::vector<double> params{5.0, -3.0};
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> grads{2.0 * params[0], 2.0 * params[1]};
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0], 0.0, 1e-3);
  EXPECT_NEAR(params[1], 0.0, 1e-3);
}

TEST(Optimizer, MomentumConvergesOnQuadratic) {
  momentum_sgd opt{0.05, 0.9};
  std::vector<double> params{4.0};
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> grads{2.0 * params[0]};
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0], 0.0, 1e-3);
}

TEST(Optimizer, GradientClipping) {
  std::vector<double> g{3.0, 4.0};  // norm 5
  const double norm = clip_gradient_norm(g, 1.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(std::hypot(g[0], g[1]), 1.0, 1e-12);
  // Under the cap: untouched.
  std::vector<double> g2{0.3, 0.4};
  clip_gradient_norm(g2, 1.0);
  EXPECT_DOUBLE_EQ(g2[0], 0.3);
}

TEST(Optimizer, RejectsSizeMismatch) {
  sgd opt{0.1};
  std::vector<double> params{1.0, 2.0};
  const std::vector<double> grads{1.0};
  EXPECT_THROW(opt.step(params, grads), std::invalid_argument);
}

// --------------------------------------------------------------- trainer --

TEST(Trainer, LearnsLinearFunction) {
  rng g{21};
  const layer_spec specs[] = {{8, activation::tanh_act},
                              {1, activation::linear}};
  mlp net{2, specs, g};
  supervised_trainer trainer{net, loss_kind::mse, std::make_unique<adam>(0.01)};

  // Target: y = 2*x0 - x1.
  std::vector<training_sample> batch;
  for (int i = 0; i < 64; ++i) {
    const double x0 = g.uniform(-1, 1);
    const double x1 = g.uniform(-1, 1);
    batch.push_back({{x0, x1}, {2 * x0 - x1}});
  }
  const double before = trainer.evaluate(batch);
  for (int epoch = 0; epoch < 400; ++epoch) trainer.train_batch(batch);
  const double after = trainer.evaluate(batch);
  EXPECT_LT(after, before * 0.05);
  EXPECT_LT(after, 0.01);
}

TEST(Trainer, EmptyBatchIsNoop) {
  rng g{22};
  auto net = make_ffnn_flow_size_net(g);
  const auto params = net.parameters();
  supervised_trainer trainer{net, loss_kind::mse, std::make_unique<sgd>(0.1)};
  const auto report = trainer.train_batch({});
  EXPECT_DOUBLE_EQ(report.mean_loss, 0.0);
  EXPECT_EQ(net.parameters(), params);
}

TEST(Trainer, GoldenParameterHashSmoothL1) {
  // FFNN flow-size net, smooth-L1 with targets on both sides of the
  // quadratic core, Adam.  The constant was recorded from the per-sample
  // (two forwards, one backward) trainer.
  rng g{51};
  auto net = make_ffnn_flow_size_net(g);
  supervised_trainer trainer{net, loss_kind::smooth_l1,
                             std::make_unique<adam>(0.01)};
  std::vector<training_sample> batch;
  for (int i = 0; i < 32; ++i) {
    std::vector<double> x(8);
    for (auto& v : x) v = g.uniform(-2.0, 2.0);
    batch.push_back({x, {3.0 * x[0] - x[3] + g.uniform(-4.0, 4.0)}});
  }
  for (int epoch = 0; epoch < 25; ++epoch) trainer.train_batch(batch);
  EXPECT_EQ(fnv1a(net.parameters()), 0x7932e99ee4f22286ULL);
}

// ------------------------------------------------------------- serialize --

TEST(Serialize, RoundTripPreservesOutputs) {
  rng g{33};
  auto net = make_mocc_net(g);
  const auto text = save_mlp_to_string(net);
  const auto loaded = load_mlp_from_string(text);
  EXPECT_TRUE(net.same_structure(loaded));
  std::vector<double> x(net.input_size());
  for (auto& v : x) v = g.uniform(-1, 1);
  const auto y0 = net.forward(x);
  const auto y1 = loaded.forward(x);
  for (std::size_t i = 0; i < y0.size(); ++i) EXPECT_DOUBLE_EQ(y0[i], y1[i]);
}

TEST(Serialize, RejectsCorruptHeader) {
  EXPECT_THROW(load_mlp_from_string("not-a-model"), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedParams) {
  rng g{34};
  auto net = make_ffnn_flow_size_net(g);
  auto text = save_mlp_to_string(net);
  text.resize(text.size() / 2);
  EXPECT_THROW(load_mlp_from_string(text), std::runtime_error);
}

}  // namespace

#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace lf::nn {

mlp::mlp(std::size_t input_size, std::span<const layer_spec> layers, rng& gen)
    : input_size_{input_size} {
  if (layers.empty()) throw std::invalid_argument{"mlp needs >= 1 layer"};
  std::size_t in = input_size;
  layers_.reserve(layers.size());
  for (const auto& spec : layers) {
    layers_.emplace_back(in, spec.output_size, spec.act, gen);
    in = spec.output_size;
  }
}

mlp::mlp(std::size_t input_size, std::span<const layer_spec> layers)
    : input_size_{input_size} {
  if (layers.empty()) throw std::invalid_argument{"mlp needs >= 1 layer"};
  std::size_t in = input_size;
  layers_.reserve(layers.size());
  for (const auto& spec : layers) {
    layers_.emplace_back(in, spec.output_size, spec.act);
    in = spec.output_size;
  }
}

std::size_t mlp::output_size() const noexcept {
  return layers_.back().output_size();
}

std::size_t mlp::tape_size() const noexcept {
  std::size_t n = input_size_;
  for (const auto& layer : layers_) n += 2 * layer.output_size();
  return n;
}

std::size_t mlp::backward_scratch_size() const noexcept {
  // Two ping-pong dL/dx buffers; the first layer's dL/dx is never needed.
  std::size_t widest = 0;
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    widest = std::max(widest, layers_[i].input_size());
  }
  return 2 * widest;
}

std::span<const double> mlp::forward_tape(std::span<const double> x,
                                          std::span<double> tape) const {
  if (x.size() != input_size_) {
    throw std::invalid_argument{"mlp::forward_tape input size mismatch"};
  }
  if (tape.size() != tape_size()) {
    throw std::invalid_argument{"mlp::forward_tape tape size mismatch"};
  }
  std::copy(x.begin(), x.end(), tape.begin());
  const double* in = tape.data();
  double* pre = tape.data() + input_size_;
  for (const auto& layer : layers_) {
    double* y = pre + layer.output_size();
    layer.forward_into(in, pre, y);
    in = y;
    pre = y + layer.output_size();
  }
  return tape.last(output_size());
}

std::span<const double> mlp::tape_output(std::span<const double> tape) const {
  if (tape.size() != tape_size()) {
    throw std::invalid_argument{"mlp::tape_output tape size mismatch"};
  }
  return tape.last(output_size());
}

void mlp::backward_tape(std::span<const double> tape,
                        std::span<const double> grad_out,
                        std::span<double> grad,
                        std::span<double> scratch) const {
  if (tape.size() != tape_size()) {
    throw std::invalid_argument{"mlp::backward_tape tape size mismatch"};
  }
  if (grad_out.size() != output_size()) {
    throw std::invalid_argument{"mlp::backward_tape grad_out size mismatch"};
  }
  if (grad.size() != parameter_count()) {
    throw std::invalid_argument{"mlp::backward_tape grad size mismatch"};
  }
  const std::size_t half = backward_scratch_size() / 2;
  if (scratch.size() < 2 * half) {
    throw std::invalid_argument{"mlp::backward_tape scratch too small"};
  }
  // Walk the tape and the flat gradient from their ends: layer li's output
  // ends where layer li+1's pre-activation begins, and its input sits just
  // before its pre-activation.
  const double* end = tape.data() + tape.size();
  double* grad_end = grad.data() + grad.size();
  const double* grad_y = grad_out.data();
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const auto& layer = layers_[li];
    const double* y = end - layer.output_size();
    const double* pre = y - layer.output_size();
    const double* x = pre - layer.input_size();
    double* grad_b = grad_end - layer.biases().size();
    double* grad_w = grad_b - layer.weights().size();
    double* grad_x = li == 0 ? nullptr : scratch.data() + (li % 2) * half;
    layer.backward_into(x, pre, y, grad_y, grad_x, grad_w, grad_b);
    grad_y = grad_x;
    end = pre;
    grad_end = grad_w;
  }
}

std::vector<double> mlp::forward(std::span<const double> x) const {
  std::vector<double> tape(tape_size());
  const auto y = forward_tape(x, tape);
  return {y.begin(), y.end()};
}

std::vector<double> mlp::accumulate_gradient(std::span<const double> x,
                                             std::span<const double> grad_out,
                                             std::span<double> grad) const {
  std::vector<double> buf(tape_size() + backward_scratch_size());
  const auto tape = std::span<double>{buf}.first(tape_size());
  const auto y = forward_tape(x, tape);
  backward_tape(tape, grad_out, grad,
                std::span<double>{buf}.subspan(tape.size()));
  return {y.begin(), y.end()};
}

std::vector<double> mlp::parameters() const {
  std::vector<double> out;
  out.reserve(parameter_count());
  for (const auto& layer : layers_) {
    out.insert(out.end(), layer.weights().begin(), layer.weights().end());
    out.insert(out.end(), layer.biases().begin(), layer.biases().end());
  }
  return out;
}

void mlp::set_parameters(std::span<const double> params) {
  if (params.size() != parameter_count()) {
    throw std::invalid_argument{"mlp::set_parameters size mismatch"};
  }
  std::size_t off = 0;
  for (auto& layer : layers_) {
    for (auto& w : layer.weights()) w = params[off++];
    for (auto& b : layer.biases()) b = params[off++];
  }
}

std::size_t mlp::parameter_count() const noexcept {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.param_count();
  return n;
}

double mlp::parameter_distance(const mlp& other) const {
  if (!same_structure(other)) {
    throw std::invalid_argument{"parameter_distance: structure mismatch"};
  }
  const auto a = parameters();
  const auto b = other.parameters();
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(a.size()));
}

std::string mlp::describe() const {
  std::ostringstream os;
  os << input_size_;
  for (const auto& layer : layers_) {
    os << " -> " << layer.output_size() << "(" << to_string(layer.act()) << ")";
  }
  return os.str();
}

bool mlp::same_structure(const mlp& other) const noexcept {
  if (input_size_ != other.input_size_ ||
      layers_.size() != other.layers_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].output_size() != other.layers_[i].output_size() ||
        layers_[i].act() != other.layers_[i].act()) {
      return false;
    }
  }
  return true;
}

mlp make_aurora_net(rng& gen, std::size_t history) {
  // Aurora (Jay et al., ICML'19): k-step history of {latency gradient,
  // latency ratio, sending ratio}; two hidden FC layers of 32 and 16;
  // scalar rate-change output in [-1, 1] via tanh.
  const layer_spec specs[] = {
      {32, activation::tanh_act},
      {16, activation::tanh_act},
      {1, activation::tanh_act},
  };
  return mlp{history * 3, specs, gen};
}

mlp make_mocc_net(rng& gen, std::size_t history) {
  // MOCC (Ma et al., EuroSys'22): Aurora-style observations, hidden layers
  // of 64 and 32.
  const layer_spec specs[] = {
      {64, activation::tanh_act},
      {32, activation::tanh_act},
      {1, activation::tanh_act},
  };
  return mlp{history * 3, specs, gen};
}

mlp make_ffnn_flow_size_net(rng& gen) {
  // FFNN (FLUX, NSDI'19): flow-size predictor with two 5-neuron relu hidden
  // layers.  Inputs: 8 flow-context features (see apps/flow_sched).
  const layer_spec specs[] = {
      {5, activation::relu},
      {5, activation::relu},
      {1, activation::linear},
  };
  return mlp{8, specs, gen};
}

mlp make_lb_mlp_net(rng& gen, std::size_t paths) {
  // Load-balancing MLP (paper §5.3): two 12-neuron relu hidden layers;
  // inputs: per-path {ECN fraction, sRTT, recent utilization} (3 per path);
  // outputs: one score per path.
  const layer_spec specs[] = {
      {12, activation::relu},
      {12, activation::relu},
      {paths, activation::linear},
  };
  return mlp{paths * 3, specs, gen};
}

}  // namespace lf::nn

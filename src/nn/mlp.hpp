// Multi-layer perceptron — the model family every NN in the paper belongs to
// (Aurora: 32/16 tanh, MOCC: 64/32 tanh, FFNN: 5/5 relu, LB-MLP: 12/12 relu).
//
// Parameters are exposed as one flat vector so optimizers and the
// quantizer/code-generator can treat the model generically.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"

namespace lf {
class rng;
}

namespace lf::nn {

struct layer_spec {
  std::size_t output_size = 0;
  activation act = activation::linear;
};

class mlp {
 public:
  /// Random (Xavier) initialization.
  mlp(std::size_t input_size, std::span<const layer_spec> layers, rng& gen);

  /// Zero-initialized (for deserialization).
  mlp(std::size_t input_size, std::span<const layer_spec> layers);

  std::size_t input_size() const noexcept { return input_size_; }
  std::size_t output_size() const noexcept;
  std::size_t layer_count() const noexcept { return layers_.size(); }
  const dense_layer& layer(std::size_t i) const { return layers_.at(i); }
  dense_layer& layer(std::size_t i) { return layers_.at(i); }

  // Forward/backward on a caller-owned tape.  A tape is one flat buffer per
  // sample: the input, then each layer's pre-activation and output, in
  // layer order:
  //   [x | pre_0 | y_0 | pre_1 | y_1 | ... | pre_L-1 | y_L-1]
  // backward_tape reads everything it needs from the tape, so a sample
  // costs one forward and one backward however many times its output is
  // read in between (see DESIGN.md §16).

  /// Doubles one tape holds: input_size() + 2 * (sum of layer outputs).
  std::size_t tape_size() const noexcept;

  /// Doubles of scratch backward_tape needs.
  std::size_t backward_scratch_size() const noexcept;

  /// Records the forward pass of x on `tape` (exactly tape_size() doubles)
  /// and returns the output, a view into the tape's tail.
  std::span<const double> forward_tape(std::span<const double> x,
                                       std::span<double> tape) const;

  /// The output a tape recorded (its last output_size() doubles).
  std::span<const double> tape_output(std::span<const double> tape) const;

  /// Accumulates (+=) into grad the parameter gradient of the loss whose
  /// output gradient is grad_out (dL/dy), for the sample recorded on tape.
  /// No forward pass.  scratch holds at least backward_scratch_size()
  /// doubles; grad may not overlap tape, grad_out or scratch, nor scratch
  /// overlap grad_out.
  void backward_tape(std::span<const double> tape,
                     std::span<const double> grad_out, std::span<double> grad,
                     std::span<double> scratch) const;

  /// Inference: returns the output vector.
  std::vector<double> forward(std::span<const double> x) const;

  /// Backpropagation for a single sample: forward_tape + backward_tape on
  /// a temporary tape.  Accumulates (+=) parameter gradients for the loss
  /// whose output gradient is grad_out (dL/dy) and returns the forward
  /// output.
  std::vector<double> accumulate_gradient(std::span<const double> x,
                                          std::span<const double> grad_out,
                                          std::span<double> grad) const;

  /// Flattened parameters (layer 0 weights, layer 0 biases, layer 1 ...).
  std::vector<double> parameters() const;
  void set_parameters(std::span<const double> params);
  std::size_t parameter_count() const noexcept;

  /// Mean L2 distance between this model's parameters and another's.
  double parameter_distance(const mlp& other) const;

  /// Structure description, e.g. "3 -> 32(tanh) -> 16(tanh) -> 1(linear)".
  std::string describe() const;

  /// Structure equality (same shapes + activations).
  bool same_structure(const mlp& other) const noexcept;

 private:
  std::size_t input_size_;
  std::vector<dense_layer> layers_;
};

/// Convenience builders matching the paper's four evaluated networks.
mlp make_aurora_net(rng& gen, std::size_t history = 10);
mlp make_mocc_net(rng& gen, std::size_t history = 10);
mlp make_ffnn_flow_size_net(rng& gen);
mlp make_lb_mlp_net(rng& gen, std::size_t paths = 2);

}  // namespace lf::nn

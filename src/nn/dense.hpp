// A fully-connected layer: y = act(W x + b).
//
// Weights are stored row-major (output-major), matching both the paper's
// Listing 1 template ("weights[i][j]" with i over outputs) and the layout the
// code generator emits, so the quantizer can hand rows straight through.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/activation.hpp"

namespace lf {
class rng;
}

namespace lf::nn {

class dense_layer {
 public:
  /// Xavier/Glorot-uniform initialization (scaled for tanh/sigmoid; He-style
  /// doubling for relu).
  dense_layer(std::size_t input_size, std::size_t output_size, activation act,
              rng& gen);

  /// All-zero weights (used by deserialization).
  dense_layer(std::size_t input_size, std::size_t output_size, activation act);

  std::size_t input_size() const noexcept { return in_; }
  std::size_t output_size() const noexcept { return out_; }
  activation act() const noexcept { return act_; }

  /// y = act(Wx + b). pre (optional) receives the pre-activation Wx + b;
  /// pass {} to skip.
  void forward(std::span<const double> x, std::span<double> y,
               std::span<double> pre) const;

  // The kernels of mlp's tape path.  They check nothing: x has
  // input_size() doubles, pre/y/grad_y output_size(), grad_x input_size()
  // (or null), grad_w/grad_b weights()/biases() sizes; mlp checks once at
  // its public entry points.

  /// pre = Wx + b (skipped when null), y = act(pre).  Each row sums b, then
  /// w[0]x[0], w[1]x[1], ... in that order.
  void forward_into(const double* x, double* pre, double* y) const noexcept;

  /// Backpropagate grad_y (dL/dy) given the forward pass's x, pre and y:
  /// grad_w/grad_b accumulate (+=), grad_x (if non-null) is overwritten
  /// with dL/dx.  No two of the seven buffers may overlap.
  void backward_into(const double* x, const double* pre, const double* y,
                     const double* grad_y, double* grad_x, double* grad_w,
                     double* grad_b) const noexcept;

  /// weight(i, j): weight from input j to output i.
  double weight(std::size_t i, std::size_t j) const {
    return w_[i * in_ + j];
  }
  double bias(std::size_t i) const { return b_[i]; }

  std::span<double> weights() noexcept { return w_; }
  std::span<const double> weights() const noexcept { return w_; }
  std::span<double> biases() noexcept { return b_; }
  std::span<const double> biases() const noexcept { return b_; }

  std::size_t param_count() const noexcept { return w_.size() + b_.size(); }

 private:
  std::size_t in_;
  std::size_t out_;
  activation act_;
  std::vector<double> w_;  // out_ x in_, row-major
  std::vector<double> b_;  // out_
};

}  // namespace lf::nn

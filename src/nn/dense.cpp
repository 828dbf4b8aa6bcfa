#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace lf::nn {

dense_layer::dense_layer(std::size_t input_size, std::size_t output_size,
                         activation act, rng& gen)
    : dense_layer{input_size, output_size, act} {
  // Glorot-uniform; relu gets the He sqrt(2) correction.
  double limit = std::sqrt(6.0 / static_cast<double>(in_ + out_));
  if (act == activation::relu) limit *= std::sqrt(2.0);
  for (auto& w : w_) w = gen.uniform(-limit, limit);
  // Biases start at zero.
}

dense_layer::dense_layer(std::size_t input_size, std::size_t output_size,
                         activation act)
    : in_{input_size}, out_{output_size}, act_{act},
      w_(input_size * output_size, 0.0), b_(output_size, 0.0) {
  if (input_size == 0 || output_size == 0) {
    throw std::invalid_argument{"dense_layer sizes must be nonzero"};
  }
}

void dense_layer::forward(std::span<const double> x, std::span<double> y,
                          std::span<double> pre) const {
  if (x.size() != in_ || y.size() != out_) {
    throw std::invalid_argument{"dense_layer::forward size mismatch"};
  }
  if (!pre.empty() && pre.size() != out_) {
    throw std::invalid_argument{"dense_layer::forward pre size mismatch"};
  }
  forward_into(x.data(), pre.empty() ? nullptr : pre.data(), y.data());
}

void dense_layer::forward_into(const double* x, double* pre,
                               double* y) const noexcept {
  const auto finish = [&](std::size_t i, double acc) {
    if (pre) pre[i] = acc;
    y[i] = activate(act_, acc);
  };
  // Rows go four at a time so their independent add chains overlap; each
  // row still sums b, then w[0]x[0], w[1]x[1], ... in that order.
  std::size_t i = 0;
  for (; i + 4 <= out_; i += 4) {
    const double* r0 = &w_[i * in_];
    const double* r1 = r0 + in_;
    const double* r2 = r1 + in_;
    const double* r3 = r2 + in_;
    double a0 = b_[i], a1 = b_[i + 1], a2 = b_[i + 2], a3 = b_[i + 3];
    for (std::size_t j = 0; j < in_; ++j) {
      a0 += r0[j] * x[j];
      a1 += r1[j] * x[j];
      a2 += r2[j] * x[j];
      a3 += r3[j] * x[j];
    }
    finish(i, a0);
    finish(i + 1, a1);
    finish(i + 2, a2);
    finish(i + 3, a3);
  }
  for (; i < out_; ++i) {
    double acc = b_[i];
    const double* row = &w_[i * in_];
    for (std::size_t j = 0; j < in_; ++j) acc += row[j] * x[j];
    finish(i, acc);
  }
}

void dense_layer::backward_into(const double* __restrict x,
                                const double* __restrict pre,
                                const double* __restrict y,
                                const double* __restrict grad_y,
                                double* __restrict grad_x,
                                double* __restrict grad_w,
                                double* __restrict grad_b) const noexcept {
  if (grad_x) {
    for (std::size_t j = 0; j < in_; ++j) grad_x[j] = 0.0;
  }
  // The row updates are element-wise (no sum is reordered); two elements
  // per step let the compiler pair them into one vector operation.
  const std::size_t pairs = in_ & ~std::size_t{1};
  for (std::size_t i = 0; i < out_; ++i) {
    const double dpre = grad_y[i] * activate_grad(act_, pre[i], y[i]);
    grad_b[i] += dpre;
    const double* __restrict row = &w_[i * in_];
    double* __restrict grow = &grad_w[i * in_];
    for (std::size_t j = 0; j < pairs; j += 2) {
      grow[j] += dpre * x[j];
      grow[j + 1] += dpre * x[j + 1];
    }
    if (pairs < in_) grow[pairs] += dpre * x[pairs];
    if (grad_x) {
      for (std::size_t j = 0; j < pairs; j += 2) {
        grad_x[j] += dpre * row[j];
        grad_x[j + 1] += dpre * row[j + 1];
      }
      if (pairs < in_) grad_x[pairs] += dpre * row[pairs];
    }
  }
}

}  // namespace lf::nn

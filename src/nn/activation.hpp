// Activation functions for the userspace (slow-path) network.  The
// kernel-space snapshot replaces tanh/sigmoid with lookup tables (see
// src/quant/lut.hpp); these are the exact reference implementations those
// tables approximate.
#pragma once

#include <cmath>
#include <cstddef>
#include <string_view>

namespace lf::nn {

enum class activation {
  linear,
  relu,
  tanh_act,
  sigmoid,
};

/// f(x)
inline double activate(activation a, double x) noexcept {
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

/// f'(x) given the pre-activation x and the output y = f(x): tanh' is
/// 1 - y^2 and sigmoid' is y (1 - y), so nothing transcendental is
/// recomputed.  The backward pass reads both from the forward tape.
inline double activate_grad(activation a, double x, double y) noexcept {
  switch (a) {
    case activation::linear:
      return 1.0;
    case activation::relu:
      return x > 0.0 ? 1.0 : 0.0;
    case activation::tanh_act:
      return 1.0 - y * y;
    case activation::sigmoid:
      return y * (1.0 - y);
  }
  return 1.0;
}

/// f'(x) expressed in terms of x alone.
inline double activate_grad(activation a, double x) noexcept {
  return activate_grad(a, x, activate(a, x));
}

std::string_view to_string(activation a) noexcept;

/// Parse the names produced by to_string; throws std::invalid_argument.
activation activation_from_string(std::string_view name);

}  // namespace lf::nn

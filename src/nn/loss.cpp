#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace lf::nn {

double loss_value(loss_kind k, std::span<const double> pred,
                  std::span<const double> target) {
  if (pred.size() != target.size() || pred.empty()) {
    throw std::invalid_argument{"loss_value size mismatch"};
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    switch (k) {
      case loss_kind::mse:
        acc += d * d;
        break;
      case loss_kind::smooth_l1:
        acc += std::abs(d) <= 1.0 ? 0.5 * d * d : std::abs(d) - 0.5;
        break;
    }
  }
  return acc / static_cast<double>(pred.size());
}

std::vector<double> loss_gradient(loss_kind k, std::span<const double> pred,
                                  std::span<const double> target) {
  std::vector<double> g(pred.size());
  loss_gradient(k, pred, target, g);
  return g;
}

void loss_gradient(loss_kind k, std::span<const double> pred,
                   std::span<const double> target, std::span<double> out) {
  if (pred.size() != target.size() || pred.empty() ||
      out.size() != pred.size()) {
    throw std::invalid_argument{"loss_gradient size mismatch"};
  }
  const double inv_n = 1.0 / static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    switch (k) {
      case loss_kind::mse:
        out[i] = 2.0 * d * inv_n;
        break;
      case loss_kind::smooth_l1:
        out[i] = (std::abs(d) <= 1.0 ? d : (d > 0.0 ? 1.0 : -1.0)) * inv_n;
        break;
    }
  }
}

}  // namespace lf::nn

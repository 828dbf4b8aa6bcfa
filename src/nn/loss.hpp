// Loss functions for supervised slow-path training.
#pragma once

#include <span>
#include <vector>

namespace lf::nn {

enum class loss_kind {
  mse,        ///< mean squared error
  smooth_l1,  ///< Huber loss with delta = 1 (robust to flow-size outliers)
};

/// Loss value for one sample (mean over output dims).
double loss_value(loss_kind k, std::span<const double> pred,
                  std::span<const double> target);

/// dL/dpred for one sample.
std::vector<double> loss_gradient(loss_kind k, std::span<const double> pred,
                                  std::span<const double> target);

/// dL/dpred for one sample, written into `out` (pred.size() doubles).
void loss_gradient(loss_kind k, std::span<const double> pred,
                   std::span<const double> target, std::span<double> out);

}  // namespace lf::nn

// Gaussian policy over an MLP mean.
//
// Aurora's policy network outputs a rate-change action; exploration adds
// Gaussian noise with fixed sigma.  The log-probability gradient
// d log N(a; mu(s), sigma^2) / d theta = (a - mu)/sigma^2 * d mu/d theta
// is what REINFORCE ascends.
#pragma once

#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace lf::rl {

class gaussian_policy {
 public:
  gaussian_policy(nn::mlp& net, double sigma);

  /// Deterministic action (the mean) — what the frozen snapshot executes.
  std::vector<double> act_mean(std::span<const double> obs) const;

  /// Stochastic action for exploration during training.
  std::vector<double> act_sample(std::span<const double> obs, rng& gen) const;

  /// Accumulate scale * d log pi(a|s) / d theta into `grad`.
  /// Pass scale = -advantage to turn optimizer descent into reward ascent.
  void accumulate_logprob_gradient(std::span<const double> obs,
                                   std::span<const double> action, double scale,
                                   std::span<double> grad) const;

  // The same two steps on a caller-owned tape (nn::mlp::forward_tape): the
  // sample's forward pass is recorded once and the gradient pass runs
  // backward only.  The wrappers above run them on a temporary tape.

  /// Records the forward pass of obs on `tape` (net().tape_size() doubles)
  /// and writes mean + N(0, sigma^2) noise, one draw per dimension in
  /// order, into `action` (net().output_size() doubles).
  void act_sample_tape(std::span<const double> obs, std::span<double> tape,
                       std::span<double> action, rng& gen) const;

  /// accumulate_logprob_gradient for the sample recorded on `tape`, with
  /// scratch of at least scratch_size() doubles.
  void accumulate_logprob_gradient_tape(std::span<const double> tape,
                                        std::span<const double> action,
                                        double scale, std::span<double> grad,
                                        std::span<double> scratch) const;

  /// Doubles of scratch accumulate_logprob_gradient_tape needs.
  std::size_t scratch_size() const noexcept;

  double sigma() const noexcept { return sigma_; }
  void set_sigma(double sigma);
  nn::mlp& net() noexcept { return net_; }
  const nn::mlp& net() const noexcept { return net_; }

 private:
  nn::mlp& net_;
  double sigma_;
};

}  // namespace lf::rl

#include "rl/policy.hpp"

#include <stdexcept>

namespace lf::rl {

gaussian_policy::gaussian_policy(nn::mlp& net, double sigma)
    : net_{net}, sigma_{sigma} {
  if (sigma <= 0.0) throw std::invalid_argument{"policy sigma must be > 0"};
}

void gaussian_policy::set_sigma(double sigma) {
  if (sigma <= 0.0) throw std::invalid_argument{"policy sigma must be > 0"};
  sigma_ = sigma;
}

std::vector<double> gaussian_policy::act_mean(
    std::span<const double> obs) const {
  return net_.forward(obs);
}

std::vector<double> gaussian_policy::act_sample(std::span<const double> obs,
                                                rng& gen) const {
  std::vector<double> tape(net_.tape_size());
  std::vector<double> a(net_.output_size());
  act_sample_tape(obs, tape, a, gen);
  return a;
}

void gaussian_policy::accumulate_logprob_gradient(
    std::span<const double> obs, std::span<const double> action, double scale,
    std::span<double> grad) const {
  std::vector<double> buf(net_.tape_size() + scratch_size());
  const auto tape = std::span<double>{buf}.first(net_.tape_size());
  net_.forward_tape(obs, tape);
  accumulate_logprob_gradient_tape(tape, action, scale, grad,
                                   std::span<double>{buf}.subspan(tape.size()));
}

std::size_t gaussian_policy::scratch_size() const noexcept {
  return net_.output_size() + net_.backward_scratch_size();
}

void gaussian_policy::act_sample_tape(std::span<const double> obs,
                                      std::span<double> tape,
                                      std::span<double> action,
                                      rng& gen) const {
  const auto mu = net_.forward_tape(obs, tape);
  if (action.size() != mu.size()) {
    throw std::invalid_argument{"policy sample: action size mismatch"};
  }
  for (std::size_t i = 0; i < mu.size(); ++i) {
    action[i] = mu[i] + gen.normal(0.0, sigma_);
  }
}

void gaussian_policy::accumulate_logprob_gradient_tape(
    std::span<const double> tape, std::span<const double> action,
    double scale, std::span<double> grad, std::span<double> scratch) const {
  const auto mu = net_.tape_output(tape);
  if (action.size() != mu.size()) {
    throw std::invalid_argument{"policy gradient: action size mismatch"};
  }
  if (scratch.size() < scratch_size()) {
    throw std::invalid_argument{"policy gradient: scratch too small"};
  }
  const auto grad_out = scratch.first(mu.size());
  const double inv_var = 1.0 / (sigma_ * sigma_);
  for (std::size_t i = 0; i < mu.size(); ++i) {
    grad_out[i] = scale * (action[i] - mu[i]) * inv_var;
  }
  net_.backward_tape(tape, grad_out, grad, scratch.subspan(mu.size()));
}

}  // namespace lf::rl

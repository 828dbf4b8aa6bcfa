#include "rl/pg_trainer.hpp"

#include <algorithm>
#include <cmath>

namespace lf::rl {

pg_trainer::pg_trainer(nn::mlp& net, env& environment, pg_config config,
                       rng gen)
    : env_{environment}, config_{config}, gen_{gen},
      policy_{net, config.sigma}, opt_{config.learning_rate} {}

iteration_report pg_trainer::iterate() {
  auto& net = policy_.net();
  const std::size_t tape_n = net.tape_size();
  const std::size_t action_n = net.output_size();
  std::vector<double> grad(net.parameter_count(), 0.0);
  scratch_.resize(policy_.scratch_size());
  double reward_sum = 0.0;
  std::size_t step_count = 0;

  for (std::size_t ep = 0; ep < config_.episodes_per_iteration; ++ep) {
    // Rollout: one forward per step, recorded on the step's tape.
    rewards_.clear();
    auto obs = env_.reset();
    bool done = false;
    while (!done) {
      const std::size_t t = rewards_.size();
      tapes_.resize(std::max(tapes_.size(), (t + 1) * tape_n));
      actions_.resize(std::max(actions_.size(), (t + 1) * action_n));
      const auto action = std::span<double>{actions_}.subspan(t * action_n,
                                                              action_n);
      policy_.act_sample_tape(
          obs, std::span<double>{tapes_}.subspan(t * tape_n, tape_n), action,
          gen_);
      auto result = env_.step(action);
      rewards_.push_back(result.reward);
      reward_sum += result.reward;
      ++step_count;
      obs = std::move(result.observation);
      done = result.done;
    }
    const std::size_t steps = rewards_.size();
    // Reward-to-go returns.
    returns_.resize(steps);
    double running = 0.0;
    for (std::size_t t = steps; t-- > 0;) {
      running = rewards_[t] + config_.gamma * running;
      returns_[t] = running;
      // Update the running baseline (EWMA over returns).
      if (!baseline_init_) {
        baseline_ = running;
        baseline_init_ = true;
      } else {
        baseline_ = 0.99 * baseline_ + 0.01 * running;
      }
    }
    // Gradient pass: backward only, from each step's tape, in t order.
    for (std::size_t t = 0; t < steps; ++t) {
      const double advantage = returns_[t] - baseline_;
      // Descent on -advantage * log pi == ascent on expected return.
      policy_.accumulate_logprob_gradient_tape(
          std::span<const double>{tapes_}.subspan(t * tape_n, tape_n),
          std::span<const double>{actions_}.subspan(t * action_n, action_n),
          -advantage, grad, scratch_);
    }
  }

  if (step_count > 0) {
    const double inv = 1.0 / static_cast<double>(step_count);
    for (auto& g : grad) g *= inv;
  }
  iteration_report report;
  report.steps = step_count;
  report.mean_step_reward =
      step_count ? reward_sum / static_cast<double>(step_count) : 0.0;
  report.grad_norm = nn::clip_gradient_norm(grad, config_.grad_clip);

  auto params = net.parameters();
  opt_.step(params, grad);
  net.set_parameters(params);

  ++iterations_;
  last_reward_ = report.mean_step_reward;
  reward_history_.push_back(last_reward_);
  while (reward_history_.size() > config_.reward_window) {
    reward_history_.pop_front();
  }
  return report;
}

double pg_trainer::reward_stability() const {
  if (reward_history_.size() < config_.reward_window) return 1e9;
  const auto [lo, hi] =
      std::minmax_element(reward_history_.begin(), reward_history_.end());
  double mean = 0.0;
  for (const double r : reward_history_) mean += r;
  mean /= static_cast<double>(reward_history_.size());
  const double denom = std::max(std::abs(mean), 1e-6);
  return (*hi - *lo) / denom;
}

double pg_trainer::evaluate_greedy(std::size_t n_episodes) {
  double total = 0.0;
  std::size_t steps = 0;
  for (std::size_t ep = 0; ep < n_episodes; ++ep) {
    auto obs = env_.reset();
    bool done = false;
    while (!done) {
      const auto action = policy_.act_mean(obs);
      auto result = env_.step(action);
      total += result.reward;
      ++steps;
      obs = std::move(result.observation);
      done = result.done;
    }
  }
  return steps ? total / static_cast<double>(steps) : 0.0;
}

}  // namespace lf::rl

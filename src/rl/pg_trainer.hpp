// REINFORCE-with-baseline policy-gradient trainer.
//
// Aurora uses PPO; for the small environments involved, vanilla policy
// gradient with reward-to-go, a running baseline and Adam converges on the
// same policies, and it is the component LiteFlow's "NN Online Adaptation
// Interface" plugs in (users can supply any trainer; this is ours).
#pragma once

#include <deque>

#include "nn/optimizer.hpp"
#include "rl/env.hpp"
#include "rl/policy.hpp"

namespace lf::rl {

struct pg_config {
  double learning_rate = 3e-3;
  double sigma = 0.3;
  std::size_t episodes_per_iteration = 4;
  double gamma = 0.95;        ///< reward-to-go discount
  double grad_clip = 5.0;
  std::size_t reward_window = 20;  ///< iterations kept for stability stats
};

struct iteration_report {
  double mean_step_reward = 0.0;  ///< averaged over all steps this iteration
  double grad_norm = 0.0;
  std::size_t steps = 0;
};

class pg_trainer {
 public:
  pg_trainer(nn::mlp& net, env& environment, pg_config config, rng gen);

  /// One training iteration: run episodes, compute advantages, step Adam.
  iteration_report iterate();

  std::size_t iterations() const noexcept { return iterations_; }
  double baseline() const noexcept { return baseline_; }

  /// Mean reward of the most recent iteration (the "training loss" style
  /// stability value the sync evaluator watches).
  double last_mean_reward() const noexcept { return last_reward_; }

  /// Stability: relative spread (max-min)/|mean| of the recent reward
  /// window; small values mean the exploration has converged (§3.3).
  double reward_stability() const;

  gaussian_policy& policy() noexcept { return policy_; }

  /// Greedy (mean-action) average step reward over n evaluation episodes.
  double evaluate_greedy(std::size_t n_episodes = 2);

 private:
  env& env_;
  pg_config config_;
  rng gen_;
  gaussian_policy policy_;
  nn::adam opt_;
  double baseline_ = 0.0;
  bool baseline_init_ = false;
  double last_reward_ = 0.0;
  std::size_t iterations_ = 0;
  std::deque<double> reward_history_;
  // One episode's rollout, reused across episodes and iterations: step t's
  // forward tape, sampled action and reward, the reward-to-go returns, and
  // the gradient pass's scratch.
  std::vector<double> tapes_;
  std::vector<double> actions_;
  std::vector<double> rewards_;
  std::vector<double> returns_;
  std::vector<double> scratch_;
};

}  // namespace lf::rl

// Tests for the RL substrate: fluid link environment dynamics, Gaussian
// policy gradients, and the policy-gradient trainer actually learning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "rl/link_env.hpp"
#include "rl/pg_trainer.hpp"
#include "util/stats.hpp"

namespace {

using namespace lf;
using namespace lf::rl;

link_env_config small_env() {
  link_env_config cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.background_bps = 10e6;
  cfg.base_rtt = 10e-3;
  cfg.queue_bytes = 100'000;
  cfg.steps_per_episode = 40;
  return cfg;
}

// FNV-1a over the bytes of every parameter: equal hashes mean bit-identical
// parameters.
std::uint64_t parameter_hash(const nn::mlp& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double p : net.parameters()) {
    unsigned char bytes[sizeof p];
    std::memcpy(bytes, &p, sizeof p);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// -------------------------------------------------------------- link env --

TEST(LinkEnv, ObservationShape) {
  link_env env{small_env(), rng{1}};
  const auto obs = env.reset();
  EXPECT_EQ(obs.size(), env.observation_size());
  EXPECT_EQ(env.observation_size(), 30u);
  EXPECT_EQ(env.action_size(), 1u);
}

TEST(LinkEnv, EpisodeTerminatesAfterConfiguredSteps) {
  auto cfg = small_env();
  cfg.steps_per_episode = 5;
  link_env env{cfg, rng{1}};
  env.reset();
  const double action[] = {0.0};
  int steps = 0;
  bool done = false;
  while (!done) {
    done = env.step(action).done;
    ++steps;
  }
  EXPECT_EQ(steps, 5);
}

TEST(LinkEnv, OverdrivingBuildsQueueAndLatency) {
  auto cfg = small_env();
  cfg.init_rate_frac_min = cfg.init_rate_frac_max = 3.0;  // 3x bandwidth
  link_env env{cfg, rng{1}};
  env.reset();
  const double hold[] = {0.0};
  step_result r{};
  for (int i = 0; i < 10; ++i) r = env.step(hold);
  // Latency-ratio feature (index 3k-2) should show queueing.
  const double lat_ratio = r.observation[r.observation.size() - 2];
  EXPECT_GT(lat_ratio, 0.1);
  EXPECT_LT(r.reward, 0.0);  // penalized
}

TEST(LinkEnv, ModerateRateEarnsGoodReward) {
  auto cfg = small_env();
  cfg.init_rate_frac_min = cfg.init_rate_frac_max = 0.9;
  link_env env{cfg, rng{1}};
  env.reset();
  const double hold[] = {0.0};
  step_result r{};
  for (int i = 0; i < 10; ++i) r = env.step(hold);
  EXPECT_GT(r.reward, 5.0);  // ~throughput_weight * 0.9
}

TEST(LinkEnv, RandomLossShowsInSendRatioNotLatency) {
  auto cfg = small_env();
  cfg.random_loss = 0.2;
  cfg.init_rate_frac_min = cfg.init_rate_frac_max = 0.5;
  link_env env{cfg, rng{1}};
  env.reset();
  const double hold[] = {0.0};
  step_result r{};
  for (int i = 0; i < 5; ++i) r = env.step(hold);
  const double lat_ratio = r.observation[r.observation.size() - 2];
  const double send_ratio = r.observation[r.observation.size() - 1];
  EXPECT_LT(lat_ratio, 0.05);   // no queue at half rate
  EXPECT_GT(send_ratio, 0.15);  // but delivery lags sending
}

TEST(LinkEnv, SetLinkReparameterizes) {
  link_env env{small_env(), rng{1}};
  env.set_link(50e6, 5e-3, 0.1);
  EXPECT_DOUBLE_EQ(env.config().bandwidth_bps, 50e6);
  EXPECT_DOUBLE_EQ(env.config().base_rtt, 5e-3);
  EXPECT_DOUBLE_EQ(env.config().random_loss, 0.1);
  EXPECT_THROW(env.set_link(0.0, 1e-3, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- policy --

TEST(GaussianPolicy, MeanActionIsDeterministic) {
  rng g{5};
  auto net = nn::make_aurora_net(g);
  gaussian_policy pol{net, 0.3};
  std::vector<double> obs(30, 0.2);
  EXPECT_EQ(pol.act_mean(obs), pol.act_mean(obs));
}

TEST(GaussianPolicy, SamplesVaryAroundMean) {
  rng g{5};
  auto net = nn::make_aurora_net(g);
  gaussian_policy pol{net, 0.5};
  std::vector<double> obs(30, 0.2);
  const double mean = pol.act_mean(obs)[0];
  rng noise{7};
  running_stats s;
  for (int i = 0; i < 2000; ++i) s.add(pol.act_sample(obs, noise)[0]);
  EXPECT_NEAR(s.mean(), mean, 0.05);
  EXPECT_NEAR(s.stddev(), 0.5, 0.05);
}

TEST(GaussianPolicy, LogprobGradientPointsTowardAction) {
  // Ascending log pi(a|s) with a > mu must increase mu.
  rng g{6};
  const nn::layer_spec specs[] = {{1, nn::activation::linear}};
  nn::mlp net{2, specs, g};
  gaussian_policy pol{net, 0.5};
  const std::vector<double> obs{1.0, -0.5};
  const double mu0 = net.forward(obs)[0];
  const std::vector<double> action{mu0 + 1.0};
  std::vector<double> grad(net.parameter_count(), 0.0);
  // scale = -1: optimizer descent becomes log-prob ascent.
  pol.accumulate_logprob_gradient(obs, action, -1.0, grad);
  auto params = net.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) params[i] -= 0.1 * grad[i];
  net.set_parameters(params);
  EXPECT_GT(net.forward(obs)[0], mu0);
}

TEST(GaussianPolicy, TapeFormsMatchWrappersBitForBit) {
  rng g{7};
  auto net = nn::make_aurora_net(g);
  gaussian_policy pol{net, 0.3};
  std::vector<double> obs(30);
  for (auto& v : obs) v = g.uniform(-1.0, 1.0);

  rng draws_a{9};
  rng draws_b{9};
  const auto action = pol.act_sample(obs, draws_a);
  std::vector<double> tape(net.tape_size()), action_tape(net.output_size());
  pol.act_sample_tape(obs, tape, action_tape, draws_b);
  EXPECT_EQ(std::memcmp(action.data(), action_tape.data(),
                        action.size() * sizeof(double)),
            0);
  EXPECT_EQ(draws_a.next_u64(), draws_b.next_u64());  // same draws consumed

  std::vector<double> grad(net.parameter_count(), 0.0);
  auto grad_tape = grad;
  std::vector<double> scratch(pol.scratch_size());
  pol.accumulate_logprob_gradient(obs, action, -0.7, grad);
  pol.accumulate_logprob_gradient_tape(tape, action, -0.7, grad_tape, scratch);
  EXPECT_EQ(std::memcmp(grad.data(), grad_tape.data(),
                        grad.size() * sizeof(double)),
            0);
}

TEST(GaussianPolicy, TapeFormsRejectSizeMismatch) {
  rng g{8};
  auto net = nn::make_aurora_net(g);
  gaussian_policy pol{net, 0.3};
  std::vector<double> obs(30, 0.1), tape(net.tape_size());
  std::vector<double> action(net.output_size()), long_action(2);
  std::vector<double> grad(net.parameter_count(), 0.0);
  std::vector<double> scratch(pol.scratch_size());
  std::vector<double> short_scratch(pol.scratch_size() - 1);
  rng draws{10};
  EXPECT_THROW(pol.act_sample_tape(obs, tape, long_action, draws),
               std::invalid_argument);
  pol.act_sample_tape(obs, tape, action, draws);
  EXPECT_THROW(
      pol.accumulate_logprob_gradient_tape(tape, long_action, 1.0, grad,
                                           scratch),
      std::invalid_argument);
  EXPECT_THROW(pol.accumulate_logprob_gradient_tape(tape, action, 1.0, grad,
                                                    short_scratch),
               std::invalid_argument);
  for (const double v : grad) EXPECT_EQ(v, 0.0);
}

TEST(GaussianPolicy, RejectsBadSigma) {
  rng g{6};
  auto net = nn::make_aurora_net(g);
  EXPECT_THROW(gaussian_policy(net, 0.0), std::invalid_argument);
}

// --------------------------------------------------------------- trainer --

TEST(PgTrainer, ImprovesRewardOnLinkEnv) {
  rng g{11};
  auto net = nn::make_aurora_net(g);
  link_env env{small_env(), rng{12}};
  pg_config cfg;
  pg_trainer trainer{net, env, cfg, rng{13}};

  const double before = trainer.evaluate_greedy(4);
  for (int i = 0; i < 250; ++i) trainer.iterate();
  const double after = trainer.evaluate_greedy(4);
  EXPECT_GT(after, before + 0.5);
  // A trained policy should hold a high-throughput, low-queue operating
  // point: mean step reward near the feasible optimum (~10 * 0.9).
  EXPECT_GT(after, 5.0);
}

TEST(PgTrainer, StabilityDetectsConvergenceShape) {
  rng g{21};
  auto net = nn::make_aurora_net(g);
  link_env env{small_env(), rng{22}};
  pg_config cfg;
  pg_trainer trainer{net, env, cfg, rng{23}};
  // Before filling the window, stability is "infinite".
  EXPECT_GT(trainer.reward_stability(), 1e6);
  for (int i = 0; i < 300; ++i) trainer.iterate();
  const double late_stability = trainer.reward_stability();
  EXPECT_LT(late_stability, 1.0);  // rewards no longer swing wildly
}

TEST(PgTrainer, IterationReportsSteps) {
  rng g{31};
  auto net = nn::make_aurora_net(g);
  auto cfg_env = small_env();
  cfg_env.steps_per_episode = 10;
  link_env env{cfg_env, rng{32}};
  pg_config cfg;
  cfg.episodes_per_iteration = 3;
  pg_trainer trainer{net, env, cfg, rng{33}};
  const auto report = trainer.iterate();
  EXPECT_EQ(report.steps, 30u);
  EXPECT_EQ(trainer.iterations(), 1u);
}

TEST(PgTrainer, GoldenParameterHashAfterFixedSeedIterations) {
  // Aurora net on the fluid link with observation noise, so the env's and
  // the policy's RNG draws interleave.  The constant was recorded from the
  // per-sample (three forwards, one backward) trainer; any change to the
  // summation order or the RNG draw order moves it.
  rng g{41};
  auto net = nn::make_aurora_net(g);
  auto cfg_env = small_env();
  cfg_env.feature_noise = 0.15;
  link_env env{cfg_env, rng{42}};
  pg_trainer trainer{net, env, pg_config{}, rng{43}};
  for (int i = 0; i < 6; ++i) trainer.iterate();
  EXPECT_EQ(parameter_hash(net), 0x0c9ed9c662e6e86bULL);
}

}  // namespace

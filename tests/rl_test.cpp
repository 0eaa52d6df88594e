// Tests for the RL substrate: rollout buffer + GAE, actor-critic policy,
// PPO updates, baseline agents.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/gaussian.hpp"
#include "rl/agents.hpp"
#include "rl/buffer.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "rl/trainer.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace rl = vtm::rl;
namespace nn = vtm::nn;

namespace {

nn::tensor obs1(double x) { return nn::tensor({1, 1}, {x}); }

void add_step(rl::rollout_buffer& buffer, double reward, double value,
              bool done = false) {
  buffer.add(obs1(0.0), obs1(0.0), reward, value, -1.0, done);
}

}  // namespace

// ---- rollout buffer / GAE ------------------------------------------------------

TEST(buffer, add_and_capacity) {
  rl::rollout_buffer buffer(2, 1, 1);
  EXPECT_EQ(buffer.size(), 0u);
  add_step(buffer, 1.0, 0.0);
  add_step(buffer, 1.0, 0.0);
  EXPECT_TRUE(buffer.full());
  EXPECT_THROW((void)add_step(buffer, 1.0, 0.0), vtm::util::contract_error);
  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(buffer, rejects_wrong_shapes) {
  rl::rollout_buffer buffer(4, 3, 1);
  EXPECT_THROW((void)buffer.add(obs1(0.0), obs1(0.0), 0.0, 0.0, 0.0, false),
               vtm::util::contract_error);
}

TEST(buffer, gae_hand_computed_example) {
  // γ = 0.5, λ = 0.5; steps: (r=1,V=0), (r=1,V=1), (r=1,V=2,done)
  // δ2 = 1 + 0 − 2 = −1               A2 = −1
  // δ1 = 1 + 0.5·2 − 1 = 1            A1 = 1 + 0.25·(−1) = 0.75
  // δ0 = 1 + 0.5·1 − 0 = 1.5          A0 = 1.5 + 0.25·0.75 = 1.6875
  rl::rollout_buffer buffer(3, 1, 1);
  add_step(buffer, 1.0, 0.0);
  add_step(buffer, 1.0, 1.0);
  add_step(buffer, 1.0, 2.0, /*done=*/true);
  buffer.compute_advantages(0.5, 0.5, /*last_value=*/99.0);  // ignored: done
  EXPECT_NEAR(buffer.advantage_at(2), -1.0, 1e-12);
  EXPECT_NEAR(buffer.advantage_at(1), 0.75, 1e-12);
  EXPECT_NEAR(buffer.advantage_at(0), 1.6875, 1e-12);
  // Returns are advantage + value.
  EXPECT_NEAR(buffer.return_at(2), 1.0, 1e-12);
  EXPECT_NEAR(buffer.return_at(0), 1.6875, 1e-12);
}

TEST(buffer, gae_uses_bootstrap_when_not_done) {
  rl::rollout_buffer buffer(1, 1, 1);
  add_step(buffer, 1.0, 0.5);
  buffer.compute_advantages(0.9, 1.0, /*last_value=*/2.0);
  // δ = 1 + 0.9·2 − 0.5 = 2.3
  EXPECT_NEAR(buffer.advantage_at(0), 2.3, 1e-12);
}

TEST(buffer, gae_gamma_lambda_one_equals_mc_minus_value) {
  // With γ = λ = 1 and a terminal step, advantage = Σ future rewards − V.
  rl::rollout_buffer buffer(4, 1, 1);
  const double rewards[] = {1.0, 2.0, 3.0, 4.0};
  const double values[] = {0.5, 0.25, 0.125, 0.0625};
  for (int i = 0; i < 4; ++i)
    add_step(buffer, rewards[i], values[i], i == 3);
  buffer.compute_advantages(1.0, 1.0, 0.0);
  for (int i = 0; i < 4; ++i) {
    double mc = 0.0;
    for (int j = i; j < 4; ++j) mc += rewards[j];
    EXPECT_NEAR(buffer.advantage_at(i), mc - values[i], 1e-12) << i;
  }
}

TEST(buffer, done_resets_gae_accumulation) {
  // Episode boundary between steps 0 and 1: advantage at 0 must not see
  // step 1's rewards.
  rl::rollout_buffer buffer(2, 1, 1);
  add_step(buffer, 1.0, 0.0, /*done=*/true);
  add_step(buffer, 100.0, 0.0, /*done=*/true);
  buffer.compute_advantages(1.0, 1.0, 0.0);
  EXPECT_NEAR(buffer.advantage_at(0), 1.0, 1e-12);
  EXPECT_NEAR(buffer.advantage_at(1), 100.0, 1e-12);
}

TEST(buffer, minibatch_normalization_uses_buffer_stats) {
  rl::rollout_buffer buffer(4, 1, 1);
  for (int i = 0; i < 4; ++i) add_step(buffer, static_cast<double>(i), 0.0);
  buffer.compute_advantages(0.0, 0.0, 0.0);  // advantages = rewards
  const auto batch = buffer.all(/*normalize=*/true);
  vtm::util::running_stats acc;
  for (std::size_t i = 0; i < 4; ++i) acc.push(batch.advantages(i, 0));
  EXPECT_NEAR(acc.mean(), 0.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), 1.0, 1e-12);
  const auto raw = buffer.all(/*normalize=*/false);
  EXPECT_NEAR(raw.advantages(3, 0), 3.0, 1e-12);
}

TEST(buffer, sample_returns_distinct_indices) {
  rl::rollout_buffer buffer(8, 1, 1);
  for (int i = 0; i < 8; ++i) add_step(buffer, i, 0.0);
  buffer.compute_advantages(0.0, 0.0, 0.0);
  vtm::util::rng gen(3);
  rl::minibatch batch;
  buffer.sample(8, gen, batch, false);
  std::vector<double> seen;
  for (std::size_t i = 0; i < 8; ++i) seen.push_back(batch.advantages(i, 0));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(seen[i], i);
}

TEST(buffer, gather_requires_computed_advantages) {
  rl::rollout_buffer buffer(2, 1, 1);
  add_step(buffer, 1.0, 0.0);
  const std::size_t idx[] = {0};
  EXPECT_THROW((void)buffer.gather(idx), vtm::util::contract_error);
  EXPECT_FALSE(buffer.advantages_ready());
}

// ---- actor-critic policy ---------------------------------------------------------

TEST(policy, shapes_and_parameter_count) {
  vtm::util::rng gen(1);
  rl::actor_critic_config config;
  config.obs_dim = 12;
  config.act_dim = 1;
  config.hidden = {64, 64};
  rl::actor_critic policy(config, gen);
  // trunk: 12·64+64 + 64·64+64; heads: 64·1+1 each; log_std: 1.
  const auto params = policy.parameters();
  EXPECT_EQ(nn::parameter_count(params),
            (12u * 64 + 64) + (64 * 64 + 64) + 2 * (64 + 1) + 1);
  const auto out = policy.forward(
      nn::variable::constant(nn::tensor({5, 12}, 0.1)));
  EXPECT_EQ(out.mean.dims(), (nn::shape{5, 1}));
  EXPECT_EQ(out.value.dims(), (nn::shape{5, 1}));
}

TEST(policy, act_log_prob_consistent_with_gaussian) {
  vtm::util::rng gen(2);
  rl::actor_critic_config config;
  config.obs_dim = 3;
  config.hidden = {8};
  rl::actor_critic policy(config, gen);
  const auto obs = nn::tensor({1, 3}, {0.1, -0.2, 0.3});
  vtm::util::rng act_gen(7);
  const auto sample = policy.act(obs, act_gen);
  const auto out = policy.forward(nn::variable::constant(obs));
  const double expected =
      nn::gaussian_log_prob_value(out.mean.value(), policy.log_std().value(),
                                  sample.action)
          .item();
  EXPECT_NEAR(sample.log_prob, expected, 1e-12);
  EXPECT_NEAR(sample.value, out.value.value().item(), 1e-12);
}

TEST(policy, deterministic_act_returns_mean) {
  vtm::util::rng gen(3);
  rl::actor_critic_config config;
  config.obs_dim = 2;
  config.hidden = {8};
  rl::actor_critic policy(config, gen);
  const auto obs = nn::tensor({1, 2}, {0.5, 0.5});
  const auto sample = policy.act_deterministic(obs);
  const auto out = policy.forward(nn::variable::constant(obs));
  EXPECT_TRUE(sample.action.allclose(out.mean.value(), 1e-15));
}

TEST(policy, stochastic_actions_vary) {
  vtm::util::rng gen(4);
  rl::actor_critic_config config;
  config.obs_dim = 1;
  config.hidden = {4};
  rl::actor_critic policy(config, gen);
  vtm::util::rng act_gen(11);
  const auto a1 = policy.act(obs1(0.0), act_gen);
  const auto a2 = policy.act(obs1(0.0), act_gen);
  EXPECT_NE(a1.action.item(), a2.action.item());
}

// ---- PPO ---------------------------------------------------------------------------

namespace {

/// One-step continuous bandit: reward = −(a − target)². The optimal policy
/// mean is `target`; a learner that improves must move its mean toward it.
class bandit_env final : public rl::environment {
 public:
  explicit bandit_env(double target) : target_(target) {}
  std::size_t observation_dim() const override { return 1; }
  std::size_t action_dim() const override { return 1; }
  double action_low() const override { return -2.0; }
  double action_high() const override { return 2.0; }
  nn::tensor reset() override { return obs1(1.0); }
  rl::step_result step(const nn::tensor& action) override {
    rl::step_result result;
    const double a = action.item();
    result.reward = -(a - target_) * (a - target_);
    result.observation = obs1(1.0);
    result.done = true;
    return result;
  }

 private:
  double target_;
};

}  // namespace

TEST(ppo, learns_bandit_target) {
  bandit_env env(0.7);
  vtm::util::rng gen(5);
  rl::actor_critic_config net_config;
  net_config.obs_dim = 1;
  net_config.hidden = {16};
  net_config.initial_log_std = -0.3;
  rl::actor_critic policy(net_config, gen);

  rl::ppo_config ppo_config;
  ppo_config.learning_rate = 3e-3;
  ppo_config.minibatch_size = 16;
  ppo_config.epochs = 4;
  vtm::util::rng ppo_gen(6);
  rl::ppo learner(policy, ppo_config, ppo_gen);

  vtm::util::rng act_gen(7);
  for (int iteration = 0; iteration < 150; ++iteration) {
    rl::rollout_buffer buffer(16, 1, 1);
    nn::tensor obs = env.reset();
    while (!buffer.full()) {
      const auto sample = policy.act(obs, act_gen);
      const auto result = env.step(sample.action);
      buffer.add(obs, sample.action, result.reward, sample.value,
                 sample.log_prob, result.done);
      obs = env.reset();
    }
    buffer.compute_advantages(ppo_config.gamma, ppo_config.gae_lambda, 0.0);
    (void)learner.update(buffer);
  }
  const auto final_action = policy.act_deterministic(obs1(1.0));
  EXPECT_NEAR(final_action.action.item(), 0.7, 0.15);
}

TEST(ppo, update_statistics_are_sane) {
  bandit_env env(0.0);
  vtm::util::rng gen(8);
  rl::actor_critic_config net_config;
  net_config.obs_dim = 1;
  net_config.hidden = {8};
  rl::actor_critic policy(net_config, gen);
  rl::ppo_config config;
  config.epochs = 3;
  config.minibatch_size = 8;
  vtm::util::rng ppo_gen(9);
  rl::ppo learner(policy, config, ppo_gen);

  rl::rollout_buffer buffer(8, 1, 1);
  vtm::util::rng act_gen(10);
  nn::tensor obs = env.reset();
  while (!buffer.full()) {
    const auto sample = policy.act(obs, act_gen);
    const auto result = env.step(sample.action);
    buffer.add(obs, sample.action, result.reward, sample.value,
               sample.log_prob, result.done);
  }
  buffer.compute_advantages(config.gamma, config.gae_lambda, 0.0);
  const auto stats = learner.update(buffer);
  EXPECT_EQ(stats.minibatches, 3u);
  EXPECT_GE(stats.value_loss, 0.0);
  EXPECT_GE(stats.clip_fraction, 0.0);
  EXPECT_LE(stats.clip_fraction, 1.0);
  EXPECT_TRUE(std::isfinite(stats.approx_kl));
  EXPECT_TRUE(std::isfinite(stats.entropy));
}

TEST(ppo, first_update_has_unit_ratio) {
  // Immediately after collection the new policy equals the behaviour policy,
  // so the first mini-batch's ratios are 1 and nothing clips.
  bandit_env env(0.0);
  vtm::util::rng gen(11);
  rl::actor_critic_config net_config;
  net_config.obs_dim = 1;
  net_config.hidden = {8};
  rl::actor_critic policy(net_config, gen);
  rl::ppo_config config;
  config.epochs = 1;  // single mini-batch: ratios must all equal 1
  config.minibatch_size = 8;
  vtm::util::rng ppo_gen(12);
  rl::ppo learner(policy, config, ppo_gen);

  rl::rollout_buffer buffer(8, 1, 1);
  vtm::util::rng act_gen(13);
  nn::tensor obs = env.reset();
  while (!buffer.full()) {
    const auto sample = policy.act(obs, act_gen);
    const auto result = env.step(sample.action);
    buffer.add(obs, sample.action, result.reward, sample.value,
               sample.log_prob, result.done);
  }
  buffer.compute_advantages(config.gamma, config.gae_lambda, 0.0);
  const auto stats = learner.update(buffer);
  EXPECT_NEAR(stats.approx_kl, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.clip_fraction, 0.0);
}

TEST(ppo, log_std_stays_in_configured_band) {
  bandit_env env(0.0);
  vtm::util::rng gen(14);
  rl::actor_critic_config net_config;
  net_config.obs_dim = 1;
  net_config.hidden = {8};
  net_config.initial_log_std = 0.9;
  rl::actor_critic policy(net_config, gen);
  rl::ppo_config config;
  config.learning_rate = 0.5;  // huge steps to slam the bounds
  config.log_std_min = -1.0;
  config.log_std_max = 1.0;
  vtm::util::rng ppo_gen(15);
  rl::ppo learner(policy, config, ppo_gen);
  vtm::util::rng act_gen(16);
  for (int i = 0; i < 10; ++i) {
    rl::rollout_buffer buffer(8, 1, 1);
    nn::tensor obs = env.reset();
    while (!buffer.full()) {
      const auto sample = policy.act(obs, act_gen);
      const auto result = env.step(sample.action);
      buffer.add(obs, sample.action, result.reward, sample.value,
                 sample.log_prob, result.done);
    }
    buffer.compute_advantages(config.gamma, config.gae_lambda, 0.0);
    (void)learner.update(buffer);
    const double ls = policy.log_std().value().item();
    EXPECT_GE(ls, -1.0);
    EXPECT_LE(ls, 1.0);
  }
}

TEST(ppo, rejects_invalid_config) {
  vtm::util::rng gen(17);
  rl::actor_critic_config net_config;
  net_config.obs_dim = 1;
  net_config.hidden = {4};
  rl::actor_critic policy(net_config, gen);
  rl::ppo_config bad;
  bad.clip_epsilon = 0.0;
  vtm::util::rng ppo_gen(18);
  EXPECT_THROW((void)rl::ppo(policy, bad, ppo_gen), vtm::util::contract_error);
}

// ---- baseline agents -----------------------------------------------------------------

TEST(agents, random_scheme_within_bounds) {
  rl::random_scheme agent;
  vtm::util::rng gen(19);
  for (int i = 0; i < 1000; ++i) {
    const double a = agent.select_action(5.0, 50.0, gen);
    EXPECT_GE(a, 5.0);
    EXPECT_LT(a, 50.0);
  }
}

TEST(agents, greedy_replays_best_action) {
  rl::greedy_scheme agent(/*epsilon=*/0.0);
  vtm::util::rng gen(20);
  agent.feedback(10.0, 1.0);
  agent.feedback(20.0, 5.0);
  agent.feedback(30.0, 3.0);
  EXPECT_DOUBLE_EQ(agent.select_action(0.0, 100.0, gen), 20.0);
  ASSERT_TRUE(agent.best_action().has_value());
  EXPECT_DOUBLE_EQ(*agent.best_action(), 20.0);
}

TEST(agents, greedy_explores_before_feedback) {
  rl::greedy_scheme agent(0.0);
  vtm::util::rng gen(21);
  const double a = agent.select_action(1.0, 2.0, gen);
  EXPECT_GE(a, 1.0);
  EXPECT_LE(a, 2.0);
}

TEST(agents, greedy_reset_forgets) {
  rl::greedy_scheme agent(0.0);
  agent.feedback(20.0, 5.0);
  agent.reset();
  EXPECT_FALSE(agent.best_action().has_value());
}

TEST(agents, greedy_clamps_remembered_action_to_bounds) {
  rl::greedy_scheme agent(0.0);
  vtm::util::rng gen(22);
  agent.feedback(100.0, 9.0);
  EXPECT_DOUBLE_EQ(agent.select_action(0.0, 50.0, gen), 50.0);
}

TEST(agents, greedy_rejects_bad_epsilon) {
  EXPECT_THROW((void)rl::greedy_scheme(1.5), vtm::util::contract_error);
}

namespace {

/// Stationary pricing toy: utility peaks at action = 30 on [0, 60].
class peak_env final : public rl::environment {
 public:
  std::size_t observation_dim() const override { return 1; }
  std::size_t action_dim() const override { return 1; }
  double action_low() const override { return 0.0; }
  double action_high() const override { return 60.0; }
  nn::tensor reset() override { return obs1(0.0); }
  rl::step_result step(const nn::tensor& action) override {
    rl::step_result result;
    const double a = action.item();
    result.info["leader_utility"] = 100.0 - (a - 30.0) * (a - 30.0);
    result.reward = result.info["leader_utility"];
    result.observation = obs1(0.0);
    return result;
  }
};

}  // namespace

TEST(agents, greedy_beats_random_on_stationary_peak) {
  peak_env env;
  rl::random_scheme random_agent;
  rl::greedy_scheme greedy_agent(0.1);
  vtm::util::rng gen(23);
  const auto random_stats = rl::run_agent_episode(env, random_agent, 300, gen);
  const auto greedy_stats = rl::run_agent_episode(env, greedy_agent, 300, gen);
  EXPECT_GT(greedy_stats.mean_utility, random_stats.mean_utility);
  // Greedy converges near the peak.
  EXPECT_GT(greedy_stats.final_utility, 80.0);
}

TEST(agents, episode_stats_accounting) {
  peak_env env;
  rl::greedy_scheme agent(0.0);
  vtm::util::rng gen(24);
  const auto stats = rl::run_agent_episode(env, agent, 50, gen);
  EXPECT_EQ(stats.rounds, 50u);
  EXPECT_LE(stats.best_utility, 100.0);
  // ε=0 greedy repeats one action, so best == mean up to summation rounding.
  EXPECT_GE(stats.best_utility, stats.mean_utility - 1e-9);
}

#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "nn/gaussian.hpp"
#include "util/contracts.hpp"

namespace vtm::rl {

ppo::ppo(actor_critic& policy, const ppo_config& config, util::rng& gen)
    : policy_(policy),
      config_(config),
      gen_(gen.split()),
      optimizer_(policy.parameters(), config.learning_rate) {
  VTM_EXPECTS(config.learning_rate > 0.0);
  VTM_EXPECTS(config.gamma >= 0.0 && config.gamma <= 1.0);
  VTM_EXPECTS(config.gae_lambda >= 0.0 && config.gae_lambda <= 1.0);
  VTM_EXPECTS(config.clip_epsilon > 0.0 && config.clip_epsilon < 1.0);
  VTM_EXPECTS(config.value_coef >= 0.0);
  VTM_EXPECTS(config.entropy_coef >= 0.0);
  VTM_EXPECTS(config.minibatch_size >= 1);
  VTM_EXPECTS(config.epochs >= 1);
  VTM_EXPECTS(config.max_grad_norm > 0.0);
  VTM_EXPECTS(config.log_std_min < config.log_std_max);
}

ppo_update_stats ppo::update(const rollout_buffer& buffer) {
  VTM_EXPECTS(buffer.advantages_ready());
  VTM_EXPECTS(buffer.size() >= 1);
  const std::size_t batch =
      std::min<std::size_t>(config_.minibatch_size, buffer.size());

  // Minibatch storage reused across the M epochs: each epoch samples into
  // `mb` and copies it into constant leaves made once per update, so after
  // the first epoch neither allocates.
  minibatch mb;
  auto obs = nn::variable::constant({});
  auto actions = nn::variable::constant({});
  auto old_logp = nn::variable::constant({});
  auto advantages = nn::variable::constant({});
  auto returns = nn::variable::constant({});

  // Every optimizer step leaves the gradients zeroed for the next epoch.
  optimizer_.zero_grad();
  ppo_update_stats stats;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    buffer.sample(batch, gen_, mb, config_.normalize_advantages);
    obs.mutable_value() = mb.observations;
    actions.mutable_value() = mb.actions;
    old_logp.mutable_value() = mb.old_log_probs;
    advantages.mutable_value() = mb.advantages;
    returns.mutable_value() = mb.returns;

    const auto out = policy_.forward(obs);
    const nn::variable new_logp =
        nn::gaussian_log_prob(out.mean, policy_.log_std(), actions);

    // Importance ratio with a numerically-safe clamp on the log difference.
    const nn::variable log_ratio = clamp(new_logp - old_logp, -20.0, 20.0);
    const nn::variable ratio = nn::exp(log_ratio);
    const nn::variable clipped_ratio =
        clamp(ratio, 1.0 - config_.clip_epsilon, 1.0 + config_.clip_epsilon);
    const nn::variable surrogate = nn::mean(
        nn::minimum(ratio * advantages, clipped_ratio * advantages));

    const nn::variable value_error = nn::mean(nn::square(out.value - returns));
    const nn::variable entropy = nn::gaussian_entropy(policy_.log_std());

    // Gradient *descent* on the negated objective (eq. 14 maximizes).
    nn::variable loss = -surrogate + config_.value_coef * value_error;
    if (config_.entropy_coef > 0.0)
      loss = loss - config_.entropy_coef * entropy;

    nn::backward(loss);
    nn::clip_grad_norm(optimizer_.parameters(), config_.max_grad_norm);
    optimizer_.step();

    // Keep σ in a sane band; PPO with tiny lr rarely hits this, but the
    // binary-reward regime can collapse σ without it.
    nn::variable log_std = policy_.log_std();
    for (double& x : log_std.mutable_value().flat())
      x = std::clamp(x, config_.log_std_min, config_.log_std_max);

    // Diagnostics.
    stats.policy_loss += -surrogate.value().item();
    stats.value_loss += value_error.value().item();
    stats.entropy += entropy.value().item();
    double kl = 0.0;
    double clipped = 0.0;
    const auto& rv = ratio.value();
    const auto& lr = log_ratio.value();
    for (std::size_t i = 0; i < rv.size(); ++i) {
      kl += -lr.flat()[i];
      const double r = rv.flat()[i];
      if (r < 1.0 - config_.clip_epsilon || r > 1.0 + config_.clip_epsilon)
        clipped += 1.0;
    }
    stats.approx_kl += kl / static_cast<double>(rv.size());
    stats.clip_fraction += clipped / static_cast<double>(rv.size());
    ++stats.minibatches;
  }

  const auto n = static_cast<double>(stats.minibatches);
  stats.policy_loss /= n;
  stats.value_loss /= n;
  stats.entropy /= n;
  stats.approx_kl /= n;
  stats.clip_fraction /= n;
  return stats;
}

}  // namespace vtm::rl

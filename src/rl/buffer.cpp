#include "rl/buffer.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace vtm::rl {

rollout_buffer::rollout_buffer(std::size_t capacity, std::size_t obs_dim,
                               std::size_t act_dim, std::size_t num_envs)
    : capacity_(capacity),
      obs_dim_(obs_dim),
      act_dim_(act_dim),
      num_envs_(num_envs) {
  VTM_EXPECTS(capacity >= 1);
  VTM_EXPECTS(obs_dim >= 1);
  VTM_EXPECTS(act_dim >= 1);
  VTM_EXPECTS(num_envs >= 1);
  segments_.resize(num_envs);
  for (auto& segment : segments_) segment.reserve(capacity);
}

void rollout_buffer::add(const nn::tensor& observation,
                         const nn::tensor& action, double reward, double value,
                         double log_prob, bool done) {
  VTM_EXPECTS(num_envs_ == 1);
  const double rewards[] = {reward};
  const double values[] = {value};
  const double log_probs[] = {log_prob};
  const std::uint8_t dones[] = {done ? std::uint8_t{1} : std::uint8_t{0}};
  add_batch(observation, action, rewards, values, log_probs, dones);
}

void rollout_buffer::add_batch(const nn::tensor& observations,
                               const nn::tensor& actions,
                               std::span<const double> rewards,
                               std::span<const double> values,
                               std::span<const double> log_probs,
                               std::span<const std::uint8_t> dones) {
  VTM_EXPECTS(steps_ < capacity_);
  VTM_EXPECTS(observations.dims() == (nn::shape{num_envs_, obs_dim_}));
  VTM_EXPECTS(actions.dims() == (nn::shape{num_envs_, act_dim_}));
  VTM_EXPECTS(rewards.size() == num_envs_);
  VTM_EXPECTS(values.size() == num_envs_);
  VTM_EXPECTS(log_probs.size() == num_envs_);
  VTM_EXPECTS(dones.size() == num_envs_);
  for (std::size_t e = 0; e < num_envs_; ++e) {
    transition t;
    t.observation.resize(obs_dim_);
    for (std::size_t c = 0; c < obs_dim_; ++c)
      t.observation[c] = observations(e, c);
    t.action.resize(act_dim_);
    for (std::size_t c = 0; c < act_dim_; ++c) t.action[c] = actions(e, c);
    t.reward = rewards[e];
    t.value = values[e];
    t.log_prob = log_probs[e];
    t.done = dones[e] != 0;
    segments_[e].push_back(std::move(t));
  }
  ++steps_;
  ready_ = false;
}

void rollout_buffer::compute_advantages(double gamma, double lambda,
                                        std::span<const double> last_values) {
  VTM_EXPECTS(steps_ >= 1);
  VTM_EXPECTS(last_values.size() == num_envs_);
  VTM_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  VTM_EXPECTS(lambda >= 0.0 && lambda <= 1.0);
  advantages_.assign(size(), 0.0);
  returns_.assign(size(), 0.0);

  for (std::size_t e = 0; e < num_envs_; ++e) {
    const auto& segment = segments_[e];
    const std::size_t base = e * steps_;
    double gae = 0.0;
    double next_value = last_values[e];
    for (std::size_t idx = steps_; idx-- > 0;) {
      const transition& t = segment[idx];
      const double not_done = t.done ? 0.0 : 1.0;
      const double delta = t.reward + gamma * next_value * not_done - t.value;
      gae = delta + gamma * lambda * not_done * gae;
      advantages_[base + idx] = gae;
      returns_[base + idx] = gae + t.value;  // λ-return target for the critic
      next_value = t.value;
    }
  }

  util::running_stats acc;
  for (double a : advantages_) acc.push(a);
  adv_mean_ = acc.mean();
  adv_std_ = acc.count() > 1 ? acc.stddev() : 0.0;
  ready_ = true;
}

void rollout_buffer::compute_advantages(double gamma, double lambda,
                                        double last_value) {
  VTM_EXPECTS(num_envs_ == 1);
  const double last_values[] = {last_value};
  compute_advantages(gamma, lambda, std::span<const double>(last_values));
}

const transition& rollout_buffer::at_flat(std::size_t i) const {
  return segments_[i / steps_][i % steps_];
}

minibatch rollout_buffer::gather(std::span<const std::size_t> indices,
                                 bool normalize) const {
  minibatch batch;
  gather_into(indices, normalize, batch);
  return batch;
}

void rollout_buffer::gather_into(std::span<const std::size_t> indices,
                                 bool normalize, minibatch& out) const {
  VTM_EXPECTS(ready_);
  VTM_EXPECTS(!indices.empty());
  const std::size_t b = indices.size();
  // Every element is overwritten below, so storage of the right shape is
  // kept as is.
  const auto reshape = [](nn::tensor& t, nn::shape s) {
    if (t.dims() != s) t = nn::tensor(s);
  };
  reshape(out.observations, {b, obs_dim_});
  reshape(out.actions, {b, act_dim_});
  reshape(out.old_log_probs, {b, 1});
  reshape(out.advantages, {b, 1});
  reshape(out.returns, {b, 1});
  const double denom = adv_std_ > 1e-8 ? adv_std_ : 1.0;
  for (std::size_t r = 0; r < b; ++r) {
    const std::size_t i = indices[r];
    VTM_EXPECTS(i < size());
    const transition& t = at_flat(i);
    for (std::size_t c = 0; c < obs_dim_; ++c)
      out.observations(r, c) = t.observation[c];
    for (std::size_t c = 0; c < act_dim_; ++c) out.actions(r, c) = t.action[c];
    out.old_log_probs(r, 0) = t.log_prob;
    out.advantages(r, 0) =
        normalize ? (advantages_[i] - adv_mean_) / denom : advantages_[i];
    out.returns(r, 0) = returns_[i];
  }
}

void rollout_buffer::sample(std::size_t batch_size, util::rng& gen,
                            minibatch& out, bool normalize) const {
  VTM_EXPECTS(batch_size >= 1);
  VTM_EXPECTS(batch_size <= size());
  auto perm = gen.permutation(size());
  perm.resize(batch_size);
  gather_into(perm, normalize, out);
}

minibatch rollout_buffer::all(bool normalize) const {
  std::vector<std::size_t> indices(size());
  for (std::size_t i = 0; i < size(); ++i) indices[i] = i;
  return gather(indices, normalize);
}

double rollout_buffer::advantage_at(std::size_t i) const {
  VTM_EXPECTS(ready_);
  VTM_EXPECTS(i < advantages_.size());
  return advantages_[i];
}

double rollout_buffer::return_at(std::size_t i) const {
  VTM_EXPECTS(ready_);
  VTM_EXPECTS(i < returns_.size());
  return returns_[i];
}

void rollout_buffer::clear() noexcept {
  for (auto& segment : segments_) segment.clear();
  steps_ = 0;
  advantages_.clear();
  returns_.clear();
  ready_ = false;
}

}  // namespace vtm::rl

// Rollout storage with Generalized Advantage Estimation.
//
// The paper stores transitions in a replay buffer and samples random
// mini-batches for M epochs per update — i.e. standard PPO rollout reuse.
// This buffer stores one on-policy segment *per environment* (the batched
// rollout engine steps B environments in lockstep), computes GAE(γ, λ)
// advantages and discounted-return targets independently per environment
// segment, and serves random mini-batches over the flattened B·T transitions.
// With num_envs == 1 it behaves exactly like the original single-env buffer:
// storage order, advantage math, and mini-batch indexing are unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace vtm::rl {

/// One stored transition (flattened observation/action rows).
struct transition {
  std::vector<double> observation;
  std::vector<double> action;
  double reward = 0.0;
  double value = 0.0;      ///< Critic estimate V(o) at collection time.
  double log_prob = 0.0;   ///< Behaviour-policy log π(a|o).
  bool done = false;       ///< Episode ended at this step.
};

/// Mini-batch view materialized as tensors for the PPO loss graph.
struct minibatch {
  nn::tensor observations;   ///< B x obs_dim.
  nn::tensor actions;        ///< B x act_dim.
  nn::tensor old_log_probs;  ///< B x 1.
  nn::tensor advantages;     ///< B x 1 (normalized if requested).
  nn::tensor returns;        ///< B x 1 value targets.
};

/// Fixed-capacity rollout buffer over num_envs parallel segments.
class rollout_buffer {
 public:
  /// Requires capacity (per environment) >= 1, positive dims, num_envs >= 1.
  rollout_buffer(std::size_t capacity, std::size_t obs_dim,
                 std::size_t act_dim, std::size_t num_envs = 1);

  /// Append a transition; requires num_envs() == 1, matching dims, and
  /// steps() < capacity().
  void add(const nn::tensor& observation, const nn::tensor& action,
           double reward, double value, double log_prob, bool done);

  /// Append one lockstep row for all environments: observations are
  /// num_envs x obs_dim, actions num_envs x act_dim, and the spans hold one
  /// entry per environment. Requires steps() < capacity().
  void add_batch(const nn::tensor& observations, const nn::tensor& actions,
                 std::span<const double> rewards,
                 std::span<const double> values,
                 std::span<const double> log_probs,
                 std::span<const std::uint8_t> dones);

  /// Environments stored per lockstep row.
  [[nodiscard]] std::size_t num_envs() const noexcept { return num_envs_; }

  /// Lockstep rows stored so far (same for every environment).
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

  /// Total stored transitions: steps() · num_envs().
  [[nodiscard]] std::size_t size() const noexcept { return steps_ * num_envs_; }

  /// Per-environment segment capacity.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool full() const noexcept { return steps_ == capacity_; }

  /// Compute GAE advantages and return targets per environment segment.
  /// `last_values` holds one bootstrap value per environment (0 where the
  /// final stored step ended the episode). Requires a non-empty buffer and
  /// gamma, lambda in [0, 1].
  void compute_advantages(double gamma, double lambda,
                          std::span<const double> last_values);

  /// Single-env convenience overload. Requires num_envs() == 1.
  void compute_advantages(double gamma, double lambda, double last_value);

  /// True once compute_advantages has run for the current contents.
  [[nodiscard]] bool advantages_ready() const noexcept { return ready_; }

  /// Materialize a mini-batch from explicit flat indices (environment-major:
  /// index = env · steps() + step). Requires advantages_ready and valid
  /// indices. When `normalize` is set, advantages are standardized using the
  /// whole buffer's statistics (not the mini-batch's).
  [[nodiscard]] minibatch gather(std::span<const std::size_t> indices,
                                 bool normalize = true) const;

  /// Random mini-batch of `batch_size` distinct indices (batch_size <= size),
  /// written into `out`. A reused `out` keeps its storage, so sampling the
  /// same batch size again allocates no tensors.
  void sample(std::size_t batch_size, util::rng& gen, minibatch& out,
              bool normalize = true) const;

  /// Whole-buffer batch in storage order.
  [[nodiscard]] minibatch all(bool normalize = true) const;

  /// Advantage of flat transition i (environment-major order). Requires
  /// advantages_ready.
  [[nodiscard]] double advantage_at(std::size_t i) const;

  /// Return target of flat transition i. Requires advantages_ready.
  [[nodiscard]] double return_at(std::size_t i) const;

  /// Drop all stored transitions.
  void clear() noexcept;

 private:
  [[nodiscard]] const transition& at_flat(std::size_t i) const;
  void gather_into(std::span<const std::size_t> indices, bool normalize,
                   minibatch& out) const;

  std::size_t capacity_;
  std::size_t obs_dim_;
  std::size_t act_dim_;
  std::size_t num_envs_;
  std::size_t steps_ = 0;
  std::vector<std::vector<transition>> segments_;  ///< One per environment.
  std::vector<double> advantages_;  ///< Flat, environment-major.
  std::vector<double> returns_;     ///< Flat, environment-major.
  double adv_mean_ = 0.0;
  double adv_std_ = 1.0;
  bool ready_ = false;
};

}  // namespace vtm::rl

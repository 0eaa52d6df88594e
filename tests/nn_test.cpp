// Tests for layers, initializers, optimizers, Gaussian head, serialization.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <sstream>
#include <vector>

#include "nn/fastmath.hpp"
#include "nn/gaussian.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nn = vtm::nn;

// ---- init --------------------------------------------------------------------

TEST(init, xavier_uniform_within_bound) {
  vtm::util::rng gen(1);
  const auto w = nn::xavier_uniform({64, 32}, gen);
  const double bound = std::sqrt(6.0 / (64.0 + 32.0));
  for (double x : w.flat()) {
    EXPECT_GE(x, -bound);
    EXPECT_LE(x, bound);
  }
}

TEST(init, xavier_not_degenerate) {
  vtm::util::rng gen(2);
  const auto w = nn::xavier_uniform({16, 16}, gen);
  vtm::util::running_stats acc;
  for (double x : w.flat()) acc.push(x);
  EXPECT_GT(acc.stddev(), 0.01);
}

TEST(init, orthogonal_columns_orthonormal) {
  vtm::util::rng gen(3);
  const auto w = nn::orthogonal({8, 4}, gen);  // tall: 8 rows of 4-vectors?
  // For rows >= cols the *columns* span orthonormal directions after the
  // Gram–Schmidt on row vectors; verify WᵀW ≈ I on the smaller dimension.
  const auto gram = w.transposed().matmul(w);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-9)
          << "gram(" << i << "," << j << ")";
}

TEST(init, orthogonal_gain_scales_norm) {
  vtm::util::rng gen(4);
  const double gain = 0.01;
  const auto w = nn::orthogonal({6, 6}, gen, gain);
  const auto gram = w.transposed().matmul(w);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(gram(i, i), gain * gain, 1e-12);
}

TEST(init, zeros_is_zero) {
  const auto z = nn::zeros({3, 3});
  for (double x : z.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
}

// ---- layers --------------------------------------------------------------------

TEST(linear, forward_matches_manual_affine) {
  vtm::util::rng gen(5);
  nn::linear layer(3, 2, gen);
  nn::tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto y = layer.forward(nn::variable::constant(x)).value();
  const auto& w = layer.weight().value();
  const auto& b = layer.bias().value();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) {
      double manual = b(0, c);
      for (std::size_t k = 0; k < 3; ++k) manual += x(r, k) * w(k, c);
      EXPECT_NEAR(y(r, c), manual, 1e-12);
    }
}

TEST(linear, rejects_wrong_input_width) {
  vtm::util::rng gen(6);
  nn::linear layer(3, 2, gen);
  EXPECT_THROW((void)layer.forward(nn::variable::constant(nn::tensor({1, 4}))),
               vtm::util::contract_error);
}

TEST(linear, parameters_are_weight_and_bias) {
  vtm::util::rng gen(7);
  nn::linear layer(5, 4, gen);
  const auto params = layer.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].dims(), (nn::shape{5, 4}));
  EXPECT_EQ(params[1].dims(), (nn::shape{1, 4}));
  EXPECT_EQ(nn::parameter_count(params), 5u * 4u + 4u);
}

TEST(mlp, shapes_and_depth) {
  vtm::util::rng gen(8);
  nn::mlp net({12, 64, 64, 1}, nn::activation::tanh, gen);
  EXPECT_EQ(net.depth(), 3u);
  const auto y =
      net.forward(nn::variable::constant(nn::tensor({5, 12}, 0.1)));
  EXPECT_EQ(y.dims(), (nn::shape{5, 1}));
}

TEST(mlp, requires_at_least_two_sizes) {
  vtm::util::rng gen(9);
  EXPECT_THROW((void)nn::mlp({4}, nn::activation::tanh, gen),
               vtm::util::contract_error);
}

TEST(mlp, output_layer_has_no_activation) {
  vtm::util::rng gen(10);
  // With identity hidden activation the whole net is affine: the output can
  // exceed tanh's range.
  nn::mlp net({1, 4, 1}, nn::activation::identity, gen, 10.0);
  const auto y = net.forward(
      nn::variable::constant(nn::tensor::scalar(100.0)));
  EXPECT_GT(std::abs(y.value().item()), 1.0);
}

TEST(mlp, distinct_outputs_for_distinct_inputs) {
  vtm::util::rng gen(11);
  nn::mlp net({2, 16, 1}, nn::activation::tanh, gen);
  const auto y1 =
      net.forward(nn::variable::constant(nn::tensor({1, 2}, {0.0, 0.0})));
  const auto y2 =
      net.forward(nn::variable::constant(nn::tensor({1, 2}, {1.0, -1.0})));
  EXPECT_NE(y1.value().item(), y2.value().item());
}

TEST(activation, all_variants_apply) {
  const auto x = nn::variable::constant(nn::tensor({1, 2}, {-2.0, 2.0}));
  EXPECT_DOUBLE_EQ(
      nn::apply_activation(x, nn::activation::identity).value()(0, 0), -2.0);
  EXPECT_NEAR(nn::apply_activation(x, nn::activation::tanh).value()(0, 1),
              std::tanh(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(
      nn::apply_activation(x, nn::activation::relu).value()(0, 0), 0.0);
  EXPECT_NEAR(nn::apply_activation(x, nn::activation::sigmoid).value()(0, 1),
              1.0 / (1.0 + std::exp(-2.0)), 1e-12);
}

// ---- optimizers ------------------------------------------------------------------

namespace {

// Convex quadratic: f(θ) = Σ (θ_i − target_i)².
nn::variable quadratic_loss(const nn::variable& theta,
                            const nn::tensor& target) {
  return nn::sum(nn::square(theta - nn::variable::constant(target)));
}

}  // namespace

TEST(sgd, converges_on_quadratic) {
  auto theta = nn::variable::parameter(nn::tensor({1, 3}, 0.0));
  const nn::tensor target({1, 3}, {1.0, -2.0, 3.0});
  nn::sgd opt({theta}, 0.1);
  for (int i = 0; i < 200; ++i) {
    auto loss = quadratic_loss(theta, target);
    nn::backward(loss);
    opt.step();
  }
  EXPECT_TRUE(theta.value().allclose(target, 1e-6));
}

TEST(sgd, momentum_accelerates) {
  auto plain = nn::variable::parameter(nn::tensor({1, 1}, 0.0));
  auto fast = nn::variable::parameter(nn::tensor({1, 1}, 0.0));
  const nn::tensor target({1, 1}, {10.0});
  nn::sgd opt_plain({plain}, 0.01);
  nn::sgd opt_fast({fast}, 0.01, 0.9);
  for (int i = 0; i < 30; ++i) {
    auto l1 = quadratic_loss(plain, target);
    nn::backward(l1);
    opt_plain.step();
    auto l2 = quadratic_loss(fast, target);
    nn::backward(l2);
    opt_fast.step();
  }
  EXPECT_LT(std::abs(fast.value().item() - 10.0),
            std::abs(plain.value().item() - 10.0));
}

TEST(sgd, rejects_bad_hyperparameters) {
  auto theta = nn::variable::parameter(nn::tensor({1, 1}));
  EXPECT_THROW((void)nn::sgd({theta}, 0.0), vtm::util::contract_error);
  EXPECT_THROW((void)nn::sgd({theta}, 0.1, 1.0), vtm::util::contract_error);
}

TEST(adam, converges_on_quadratic) {
  auto theta = nn::variable::parameter(nn::tensor({1, 4}, 5.0));
  const nn::tensor target({1, 4}, {1.0, 2.0, -1.0, 0.0});
  nn::adam opt({theta}, 0.05);
  for (int i = 0; i < 500; ++i) {
    auto loss = quadratic_loss(theta, target);
    nn::backward(loss);
    opt.step();
  }
  EXPECT_TRUE(theta.value().allclose(target, 1e-3));
  EXPECT_EQ(opt.steps(), 500u);
}

TEST(adam, handles_scale_differences) {
  // One coordinate's gradient is 1000x the other's; Adam should still move
  // both at comparable speed.
  auto theta = nn::variable::parameter(nn::tensor({1, 2}, 0.0));
  nn::adam opt({theta}, 0.01);
  for (int i = 0; i < 300; ++i) {
    auto scaled = theta * nn::variable::constant(
                              nn::tensor({1, 2}, {1000.0, 1.0}));
    auto target = nn::variable::constant(nn::tensor({1, 2}, {1000.0, 1.0}));
    auto loss = nn::sum(nn::square(scaled - target));
    nn::backward(loss);
    opt.step();
  }
  EXPECT_NEAR(theta.value()(0, 0), 1.0, 0.05);
  EXPECT_NEAR(theta.value()(0, 1), 1.0, 0.05);
}

TEST(adam, step_zeroes_gradients) {
  auto theta = nn::variable::parameter(nn::tensor({1, 1}, 1.0));
  nn::adam opt({theta}, 0.01);
  auto loss = nn::sum(nn::square(theta));
  nn::backward(loss);
  EXPECT_NE(theta.grad().item(), 0.0);
  opt.step();
  EXPECT_DOUBLE_EQ(theta.grad().item(), 0.0);
}

TEST(optimizer, rejects_non_trainable_parameters) {
  auto c = nn::variable::constant(nn::tensor({1, 1}));
  EXPECT_THROW((void)nn::adam({c}, 0.01), vtm::util::contract_error);
}

TEST(clip_grad_norm, scales_down_large_gradients) {
  auto theta = nn::variable::parameter(nn::tensor({1, 2}, 0.0));
  theta.accumulate_grad(nn::tensor({1, 2}, {3.0, 4.0}));  // norm 5
  const double before = nn::clip_grad_norm({theta}, 1.0);
  EXPECT_DOUBLE_EQ(before, 5.0);
  EXPECT_NEAR(theta.grad()(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(theta.grad()(0, 1), 0.8, 1e-12);
}

TEST(clip_grad_norm, leaves_small_gradients_alone) {
  auto theta = nn::variable::parameter(nn::tensor({1, 2}, 0.0));
  theta.accumulate_grad(nn::tensor({1, 2}, {0.3, 0.4}));
  nn::clip_grad_norm({theta}, 1.0);
  EXPECT_NEAR(theta.grad()(0, 0), 0.3, 1e-12);
}

// ---- in-place optimizers vs their frozen originals --------------------------

namespace {

// The competitor-aware fleet pricer's actor-critic, parameter by parameter:
// 11 -> 64 -> 64 trunk, mean and value heads, log-std. 5,059 parameters.
const std::vector<nn::shape> kPricerShapes{{11, 64}, {1, 64}, {64, 64},
                                           {1, 64},  {64, 1}, {1, 1},
                                           {64, 1},  {1, 1},  {1, 1}};

bool bitwise_equal(const nn::tensor& a, const nn::tensor& b) {
  if (a.dims() != b.dims()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a.flat()[i]) !=
        std::bit_cast<std::uint64_t>(b.flat()[i]))
      return false;
  return true;
}

// The optimizers and clip as they were before they updated in place, frozen
// verbatim except that they act on plain tensors: each step copies the
// value, updates the copy and writes it back; clipping accumulates a scaled
// copy into a zeroed gradient.
struct reference_adam {
  double lr;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  std::size_t t = 0;
  std::vector<nn::tensor> m_state;
  std::vector<nn::tensor> v_state;

  void step(std::vector<nn::tensor>& values, std::vector<nn::tensor>& grads) {
    ++t;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (std::size_t i = 0; i < values.size(); ++i) {
      nn::tensor value = values[i];
      const nn::tensor& grad = grads[i];
      for (std::size_t j = 0; j < value.size(); ++j) {
        const double g = grad.flat()[j];
        double& m = m_state[i].flat()[j];
        double& v = v_state[i].flat()[j];
        m = beta1 * m + (1.0 - beta1) * g;
        v = beta2 * v + (1.0 - beta2) * g * g;
        const double m_hat = m / bc1;
        const double v_hat = v / bc2;
        value.flat()[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
      values[i] = std::move(value);
    }
    for (auto& g : grads) g.fill(0.0);
  }
};

struct reference_sgd {
  double lr;
  double momentum;
  std::vector<nn::tensor> velocity;

  void step(std::vector<nn::tensor>& values, std::vector<nn::tensor>& grads) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      nn::tensor value = values[i];
      const nn::tensor& grad = grads[i];
      for (std::size_t j = 0; j < value.size(); ++j) {
        double& vel = velocity[i].flat()[j];
        vel = momentum * vel + grad.flat()[j];
        value.flat()[j] -= lr * vel;
      }
      values[i] = std::move(value);
    }
    for (auto& g : grads) g.fill(0.0);
  }
};

double reference_clip_grad_norm(std::vector<nn::tensor>& grads,
                                double max_norm) {
  double sq = 0.0;
  for (const auto& grad : grads)
    for (double g : grad.flat()) sq += g * g;
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (auto& grad : grads) {
      nn::tensor scaled = grad * scale;
      grad.fill(0.0);
      grad += scaled;
    }
  }
  return norm;
}

std::vector<nn::tensor> zeros_like_pricer() {
  std::vector<nn::tensor> out;
  for (const auto s : kPricerShapes) out.emplace_back(s);
  return out;
}

// Drives an optimizer and its frozen original through 200 steps of the same
// random gradients, clipped at 0.5. Every fifth step's gradients are small
// enough that the clip leaves them alone; the rest are clipped. Requires
// bitwise-equal clip norms, clipped gradients and parameter values.
template <class Optimizer, class Reference>
void expect_matches_reference(Optimizer& opt, std::vector<nn::variable>& params,
                              Reference& ref) {
  std::vector<nn::tensor> ref_values;
  for (const auto& p : params) ref_values.push_back(p.value());
  std::vector<nn::tensor> ref_grads = zeros_like_pricer();
  vtm::util::rng gen(23);
  std::size_t clipped = 0;
  std::size_t unclipped = 0;
  for (std::size_t step = 0; step < 200; ++step) {
    const double sigma = step % 5 == 4 ? 1e-3 : 0.1;
    for (std::size_t i = 0; i < params.size(); ++i) {
      nn::tensor g(kPricerShapes[i]);
      for (double& x : g.flat()) x = sigma * gen.normal();
      params[i].accumulate_grad(g);
      ref_grads[i] += g;
    }
    const double norm = nn::clip_grad_norm(params, 0.5);
    const double ref_norm = reference_clip_grad_norm(ref_grads, 0.5);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(norm),
              std::bit_cast<std::uint64_t>(ref_norm))
        << "step " << step;
    ++(norm > 0.5 ? clipped : unclipped);
    for (std::size_t i = 0; i < params.size(); ++i)
      ASSERT_TRUE(bitwise_equal(params[i].grad(), ref_grads[i]))
          << "clipped gradient " << i << " at step " << step;
    opt.step();
    ref.step(ref_values, ref_grads);
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(bitwise_equal(params[i].value(), ref_values[i]))
          << "parameter " << i << " at step " << step;
      ASSERT_TRUE(bitwise_equal(params[i].grad(), ref_grads[i]));
    }
  }
  EXPECT_EQ(clipped, 160u);
  EXPECT_EQ(unclipped, 40u);
}

std::vector<nn::variable> pricer_parameters() {
  vtm::util::rng gen(19);
  std::vector<nn::variable> params;
  std::size_t count = 0;
  for (const auto s : kPricerShapes) {
    nn::tensor t(s);
    for (double& x : t.flat()) x = 0.1 * gen.normal();
    count += t.size();
    params.push_back(nn::variable::parameter(std::move(t)));
  }
  EXPECT_EQ(count, 5059u);
  return params;
}

}  // namespace

TEST(adam, in_place_step_matches_frozen_original_bitwise) {
  auto params = pricer_parameters();
  nn::adam opt(params, 3e-4);
  reference_adam ref{3e-4, 0.9, 0.999, 1e-8, 0, zeros_like_pricer(),
                     zeros_like_pricer()};
  expect_matches_reference(opt, params, ref);
}

TEST(sgd, in_place_step_matches_frozen_original_bitwise) {
  auto params = pricer_parameters();
  nn::sgd opt(params, 1e-2, 0.9);
  reference_sgd ref{1e-2, 0.9, zeros_like_pricer()};
  expect_matches_reference(opt, params, ref);
}

// ---- gaussian head -----------------------------------------------------------------

TEST(gaussian, log_prob_matches_closed_form) {
  const nn::tensor mean({1, 1}, {2.0});
  const nn::tensor log_std({1, 1}, {std::log(0.5)});
  const nn::tensor action({1, 1}, {2.5});
  const double lp =
      nn::gaussian_log_prob_value(mean, log_std, action).item();
  const double sigma = 0.5;
  const double expected = -0.5 * std::pow((2.5 - 2.0) / sigma, 2) -
                          std::log(sigma) -
                          0.5 * std::log(2.0 * std::numbers::pi);
  EXPECT_NEAR(lp, expected, 1e-12);
}

TEST(gaussian, graph_log_prob_matches_value_path) {
  vtm::util::rng gen(13);
  nn::tensor mean({3, 2});
  nn::tensor actions({3, 2});
  for (auto& x : mean.flat()) x = gen.normal();
  for (auto& x : actions.flat()) x = gen.normal();
  const nn::tensor log_std({1, 2}, {-0.3, 0.2});
  const auto graph = nn::gaussian_log_prob(
      nn::variable::constant(mean), nn::variable::constant(log_std),
      nn::variable::constant(actions));
  const auto value = nn::gaussian_log_prob_value(mean, log_std, actions);
  EXPECT_TRUE(graph.value().allclose(value, 1e-12));
}

TEST(gaussian, sample_moments) {
  vtm::util::rng gen(17);
  const nn::tensor mean({1, 1}, {3.0});
  const nn::tensor log_std({1, 1}, {std::log(2.0)});
  vtm::util::running_stats acc;
  for (int i = 0; i < 50000; ++i)
    acc.push(nn::gaussian_sample(mean, log_std, gen).item());
  EXPECT_NEAR(acc.mean(), 3.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(gaussian, entropy_closed_form) {
  const auto log_std =
      nn::variable::parameter(nn::tensor({1, 2}, {0.0, std::log(2.0)}));
  const double h = nn::gaussian_entropy(log_std).value().item();
  const double expected = 2.0 * 0.5 * (1.0 + std::log(2.0 * std::numbers::pi)) +
                          0.0 + std::log(2.0);
  EXPECT_NEAR(h, expected, 1e-12);
}

TEST(gaussian, higher_sigma_higher_entropy) {
  const auto narrow = nn::variable::constant(nn::tensor({1, 1}, {-1.0}));
  const auto wide = nn::variable::constant(nn::tensor({1, 1}, {1.0}));
  EXPECT_LT(nn::gaussian_entropy(narrow).value().item(),
            nn::gaussian_entropy(wide).value().item());
}

// ---- serialization --------------------------------------------------------------

TEST(serialize, roundtrip_preserves_values) {
  vtm::util::rng gen(19);
  nn::mlp net({4, 8, 2}, nn::activation::tanh, gen);
  auto params = net.parameters();
  std::stringstream stream;
  nn::save_parameters(stream, params);

  // Perturb, then load back.
  for (auto& p : params) {
    nn::tensor t = p.value();
    for (auto& x : t.flat()) x += 1.0;
    p.set_value(std::move(t));
  }
  nn::load_parameters(stream, params);

  vtm::util::rng gen2(19);
  nn::mlp reference({4, 8, 2}, nn::activation::tanh, gen2);
  const auto expected = reference.parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_TRUE(params[i].value().allclose(expected[i].value(), 1e-15));
}

TEST(serialize, rejects_bad_header) {
  auto p = nn::variable::parameter(nn::tensor({1, 1}));
  std::vector<nn::variable> params{p};
  std::stringstream stream("garbage v9\n1\n1 1 0\n");
  EXPECT_THROW((void)nn::load_parameters(stream, params), std::runtime_error);
}

TEST(serialize, rejects_shape_mismatch) {
  auto a = nn::variable::parameter(nn::tensor({1, 2}));
  std::vector<nn::variable> out{a};
  std::stringstream stream;
  auto b = nn::variable::parameter(nn::tensor({2, 2}));
  std::vector<nn::variable> in{b};
  nn::save_parameters(stream, in);
  EXPECT_THROW((void)nn::load_parameters(stream, out), std::runtime_error);
}

TEST(serialize, full_precision_roundtrip) {
  auto p = nn::variable::parameter(
      nn::tensor({1, 2}, {std::numbers::pi, 1.0 / 3.0}));
  std::vector<nn::variable> params{p};
  std::stringstream stream;
  nn::save_parameters(stream, params);
  p.set_value(nn::tensor({1, 2}));
  nn::load_parameters(stream, params);
  EXPECT_DOUBLE_EQ(p.value()(0, 0), std::numbers::pi);
  EXPECT_DOUBLE_EQ(p.value()(0, 1), 1.0 / 3.0);
}

// ---- inference forward / fastmath -------------------------------------------

TEST(fastmath, fast_tanh_accuracy_and_saturation) {
  double max_err = 0.0;
  double max_err_core = 0.0;
  for (double x = -10.0; x <= 10.0; x += 1e-3) {
    const double err = std::abs(nn::fast_tanh(x) - std::tanh(x));
    max_err = std::max(max_err, err);
    if (std::abs(x) <= 3.0) max_err_core = std::max(max_err_core, err);
  }
  EXPECT_LT(max_err, 1e-4);       // worst case at the saturation clamp
  EXPECT_LT(max_err_core, 1e-6);  // the range activations actually live in
  EXPECT_NEAR(nn::fast_tanh(100.0), 1.0, 1e-4);
  EXPECT_NEAR(nn::fast_tanh(-100.0), -1.0, 1e-4);
  EXPECT_DOUBLE_EQ(nn::fast_tanh(0.0), 0.0);
}

TEST(layers, forward_values_exact_is_bitwise_identical_to_graph) {
  vtm::util::rng gen(11);
  const nn::mlp net({5, 16, 16, 3}, nn::activation::tanh, gen);
  nn::tensor x({4, 5});
  vtm::util::rng data_gen(12);
  for (double& v : x.flat()) v = data_gen.normal();

  const nn::tensor graph = net.forward(nn::variable::constant(x)).value();
  const nn::tensor values = net.forward_values(x, nn::math_mode::exact);
  ASSERT_EQ(values.dims(), graph.dims());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(values.flat()[i], graph.flat()[i]);  // bitwise, not approx
}

TEST(layers, forward_values_fast_tracks_exact_closely) {
  vtm::util::rng gen(13);
  const nn::mlp net({5, 32, 32, 2}, nn::activation::tanh, gen);
  nn::tensor x({8, 5});
  vtm::util::rng data_gen(14);
  for (double& v : x.flat()) v = data_gen.normal();

  const nn::tensor exact = net.forward_values(x, nn::math_mode::exact);
  const nn::tensor fast = net.forward_values(x, nn::math_mode::fast);
  EXPECT_TRUE(fast.allclose(exact, 1e-4));
}

TEST(layers, apply_activation_values_matches_graph_ops) {
  for (const auto act : {nn::activation::identity, nn::activation::tanh,
                         nn::activation::relu, nn::activation::sigmoid}) {
    nn::tensor x({2, 3}, {-1.5, -0.2, 0.0, 0.4, 1.1, 3.0});
    const nn::tensor graph =
        nn::apply_activation(nn::variable::constant(x), act).value();
    nn::apply_activation_values(x, act, nn::math_mode::exact);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(x.flat()[i], graph.flat()[i]);
  }
}

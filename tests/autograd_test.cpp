// Autograd correctness: every op's gradient is validated against central
// finite differences via nn::check_gradients, plus structural tests of the
// tape (diamond graphs, leaf accumulation, stop_gradient).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/gaussian.hpp"
#include "nn/gradcheck.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace nn = vtm::nn;

namespace {

nn::tensor random_tensor(nn::shape s, vtm::util::rng& gen, double lo = -1.0,
                         double hi = 1.0) {
  nn::tensor t(s);
  for (auto& x : t.flat()) x = gen.uniform(lo, hi);
  return t;
}

}  // namespace

TEST(variable, constant_vs_parameter_grad_flags) {
  const auto c = nn::variable::constant(nn::tensor::scalar(1.0));
  const auto p = nn::variable::parameter(nn::tensor::scalar(1.0));
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(p.requires_grad());
}

TEST(variable, invalid_handle_rejected) {
  nn::variable v;
  EXPECT_FALSE(v.valid());
  EXPECT_THROW((void)v.value(), vtm::util::contract_error);
}

TEST(variable, set_value_requires_same_shape_leaf) {
  auto p = nn::variable::parameter(nn::tensor({1, 2}));
  EXPECT_NO_THROW(p.set_value(nn::tensor({1, 2}, 3.0)));
  EXPECT_THROW((void)p.set_value(nn::tensor({2, 1})), vtm::util::contract_error);
  auto interior = p * 2.0;
  EXPECT_THROW((void)interior.set_value(nn::tensor({1, 2})),
               vtm::util::contract_error);
}

TEST(backward, requires_scalar_root) {
  auto p = nn::variable::parameter(nn::tensor({1, 2}, 1.0));
  EXPECT_THROW((void)nn::backward(p), vtm::util::contract_error);
  EXPECT_NO_THROW(nn::backward(nn::sum(p)));
}

TEST(backward, linear_chain_gradient) {
  auto x = nn::variable::parameter(nn::tensor::scalar(3.0));
  auto y = nn::sum(x * 2.0 + 5.0);
  nn::backward(y);
  EXPECT_DOUBLE_EQ(x.grad().item(), 2.0);
}

TEST(backward, diamond_graph_accumulates_both_paths) {
  // y = x*x + x  =>  dy/dx = 2x + 1 at x=4 -> 9
  auto x = nn::variable::parameter(nn::tensor::scalar(4.0));
  auto y = nn::sum(x * x + x);
  nn::backward(y);
  EXPECT_DOUBLE_EQ(x.grad().item(), 9.0);
}

TEST(backward, leaf_grads_accumulate_across_calls) {
  auto x = nn::variable::parameter(nn::tensor::scalar(1.0));
  auto y1 = nn::sum(x * 3.0);
  nn::backward(y1);
  auto y2 = nn::sum(x * 4.0);
  nn::backward(y2);
  EXPECT_DOUBLE_EQ(x.grad().item(), 7.0);  // 3 + 4
  x.zero_grad();
  EXPECT_DOUBLE_EQ(x.grad().item(), 0.0);
}

TEST(backward, interior_grads_reset_between_passes) {
  auto x = nn::variable::parameter(nn::tensor::scalar(2.0));
  auto mid = x * x;
  auto y = nn::sum(mid);
  nn::backward(y);
  nn::backward(y);
  // Leaf accumulated twice (4+4); interior grad must not compound the flow.
  EXPECT_DOUBLE_EQ(x.grad().item(), 8.0);
}

TEST(backward, constants_receive_no_gradient_flow) {
  auto x = nn::variable::parameter(nn::tensor::scalar(2.0));
  auto c = nn::variable::constant(nn::tensor::scalar(10.0));
  auto y = nn::sum(x * c);
  nn::backward(y);
  EXPECT_DOUBLE_EQ(x.grad().item(), 10.0);
  EXPECT_DOUBLE_EQ(c.grad().item(), 0.0);
}

TEST(backward, stop_gradient_blocks_flow) {
  auto x = nn::variable::parameter(nn::tensor::scalar(3.0));
  auto y = nn::sum(nn::stop_gradient(x * x) * x);  // treat x² as constant 9
  nn::backward(y);
  EXPECT_DOUBLE_EQ(x.grad().item(), 9.0);
}

TEST(backward, accumulate_grad_manual) {
  auto x = nn::variable::parameter(nn::tensor::scalar(0.0));
  x.accumulate_grad(nn::tensor::scalar(2.5));
  EXPECT_DOUBLE_EQ(x.grad().item(), 2.5);
  EXPECT_THROW((void)x.accumulate_grad(nn::tensor({1, 2})),
               vtm::util::contract_error);
}

// ---- per-op gradchecks (parameterized) ---------------------------------------

struct op_case {
  const char* name;
  // Builds a scalar from one 2x3 parameter.
  std::function<nn::variable(const nn::variable&)> build;
  double lo = -1.0;  ///< Parameter value range (positive for log).
  double hi = 1.0;
};

class op_gradcheck : public ::testing::TestWithParam<op_case> {};

TEST_P(op_gradcheck, matches_finite_differences) {
  const auto& param = GetParam();
  vtm::util::rng gen(1234);
  auto x = nn::variable::parameter(
      random_tensor({2, 3}, gen, param.lo, param.hi));
  const auto result = nn::check_gradients(
      [&] { return param.build(x); }, {x}, 1e-6, 1e-5);
  EXPECT_TRUE(result.passed) << param.name << ": " << result.detail
                             << " (rel err " << result.max_rel_err << ")";
}

INSTANTIATE_TEST_SUITE_P(
    ops, op_gradcheck,
    ::testing::Values(
        op_case{"sum", [](const nn::variable& x) { return nn::sum(x); }},
        op_case{"mean", [](const nn::variable& x) { return nn::mean(x); }},
        op_case{"tanh",
                [](const nn::variable& x) { return nn::sum(nn::tanh(x)); }},
        op_case{"sigmoid",
                [](const nn::variable& x) { return nn::sum(nn::sigmoid(x)); }},
        op_case{"exp",
                [](const nn::variable& x) { return nn::sum(nn::exp(x)); }},
        op_case{"log",
                [](const nn::variable& x) { return nn::sum(nn::log(x)); }, 0.2,
                2.0},
        op_case{"square",
                [](const nn::variable& x) { return nn::sum(nn::square(x)); }},
        op_case{"relu_off_kink",
                [](const nn::variable& x) {
                  return nn::sum(nn::relu(x + 3.0) + nn::relu(x - 3.0));
                }},
        op_case{"scale_shift",
                [](const nn::variable& x) {
                  return nn::sum(2.5 * x - 1.0 + x * -0.5);
                }},
        op_case{"negate",
                [](const nn::variable& x) { return nn::sum(-x); }},
        op_case{"add_sub_mul",
                [](const nn::variable& x) {
                  return nn::sum(x * x + x - x * 0.3);
                }},
        op_case{"clamp_interior",
                [](const nn::variable& x) {
                  return nn::sum(nn::clamp(x, -10.0, 10.0));
                }},
        op_case{"sum_cols",
                [](const nn::variable& x) {
                  return nn::sum(nn::square(nn::sum_cols(x)));
                }}),
    [](const auto& info) { return info.param.name; });

TEST(op_gradcheck_binary, division) {
  vtm::util::rng gen(5);
  auto a = nn::variable::parameter(random_tensor({2, 3}, gen, 0.5, 2.0));
  auto b = nn::variable::parameter(random_tensor({2, 3}, gen, 0.5, 2.0));
  const auto result = nn::check_gradients(
      [&] { return nn::sum(a / b); }, {a, b}, 1e-6, 1e-5);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(op_gradcheck_binary, minimum_away_from_ties) {
  vtm::util::rng gen(6);
  auto a = nn::variable::parameter(random_tensor({2, 3}, gen, 0.0, 1.0));
  auto b = nn::variable::parameter(random_tensor({2, 3}, gen, 2.0, 3.0));
  const auto result = nn::check_gradients(
      [&] { return nn::sum(nn::minimum(a, b) + nn::minimum(b, a)); }, {a, b},
      1e-6, 1e-5);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(op_gradcheck_binary, matmul_both_sides) {
  vtm::util::rng gen(7);
  auto a = nn::variable::parameter(random_tensor({2, 3}, gen));
  auto b = nn::variable::parameter(random_tensor({3, 4}, gen));
  const auto result = nn::check_gradients(
      [&] { return nn::sum(nn::square(nn::matmul(a, b))); }, {a, b}, 1e-6,
      1e-5);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(op_gradcheck_binary, affine_all_three_inputs) {
  vtm::util::rng gen(8);
  auto x = nn::variable::parameter(random_tensor({4, 3}, gen));
  auto w = nn::variable::parameter(random_tensor({3, 5}, gen));
  auto b = nn::variable::parameter(random_tensor({1, 5}, gen));
  const auto result = nn::check_gradients(
      [&] { return nn::sum(nn::square(nn::affine(x, w, b))); }, {x, w, b},
      1e-6, 1e-5);
  EXPECT_TRUE(result.passed) << result.detail;
}

// The fused layer node must be the two-node composition it replaces, bit
// for bit: value and all three gradients. Shapes are the fleet pricer's
// hidden layer (20 x 64 · 64 x 64) and its 1-column value head.
TEST(affine, matches_matmul_plus_tiled_bias_bitwise) {
  vtm::util::rng gen(12);
  for (const std::size_t out_cols : {std::size_t{64}, std::size_t{1}}) {
    const auto xv = random_tensor({20, 64}, gen);
    const auto wv = random_tensor({64, out_cols}, gen);
    const auto bv = random_tensor({1, out_cols}, gen);
    const auto up = random_tensor({20, out_cols}, gen);  // upstream weights
    auto run = [&](bool fused) {
      auto x = nn::variable::parameter(xv);
      auto w = nn::variable::parameter(wv);
      auto b = nn::variable::parameter(bv);
      const auto y = fused ? nn::affine(x, w, b)
                           : nn::matmul(x, w) + nn::tile_rows(b, 20);
      nn::backward(nn::sum(nn::tanh(y) * nn::variable::constant(up)));
      return std::vector<nn::tensor>{y.value(), x.grad(), w.grad(), b.grad()};
    };
    const auto fused = run(true);
    const auto composed = run(false);
    for (std::size_t i = 0; i < fused.size(); ++i) {
      ASSERT_EQ(fused[i].dims(), composed[i].dims());
      for (std::size_t j = 0; j < fused[i].size(); ++j)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(fused[i].flat()[j]),
                  std::bit_cast<std::uint64_t>(composed[i].flat()[j]))
            << "output " << i << " element " << j << " cols " << out_cols;
    }
  }
}

TEST(op_gradcheck_binary, tile_rows_broadcast) {
  vtm::util::rng gen(9);
  auto row = nn::variable::parameter(random_tensor({1, 3}, gen));
  const auto result = nn::check_gradients(
      [&] { return nn::sum(nn::square(nn::tile_rows(row, 5))); }, {row}, 1e-6,
      1e-5);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(op_gradcheck_composite, deep_expression) {
  vtm::util::rng gen(10);
  auto w = nn::variable::parameter(random_tensor({3, 3}, gen, -0.5, 0.5));
  auto x = nn::variable::constant(random_tensor({2, 3}, gen));
  const auto result = nn::check_gradients(
      [&] {
        auto h = nn::tanh(nn::matmul(x, w));
        auto g = nn::sigmoid(nn::matmul(h, w));
        return nn::mean(nn::square(g - 0.3));
      },
      {w}, 1e-6, 1e-4);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(op_gradcheck_composite, gaussian_log_prob) {
  vtm::util::rng gen(11);
  auto mean = nn::variable::parameter(random_tensor({4, 2}, gen));
  auto log_std = nn::variable::parameter(random_tensor({1, 2}, gen, -1.0, 0.0));
  auto actions = nn::variable::constant(random_tensor({4, 2}, gen));
  const auto result = nn::check_gradients(
      [&] {
        return nn::mean(nn::gaussian_log_prob(mean, log_std, actions));
      },
      {mean, log_std}, 1e-6, 1e-4);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(op_gradcheck_composite, gaussian_entropy) {
  vtm::util::rng gen(12);
  auto log_std = nn::variable::parameter(random_tensor({1, 3}, gen));
  const auto result = nn::check_gradients(
      [&] { return nn::gaussian_entropy(log_std); }, {log_std}, 1e-6, 1e-5);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(op_gradcheck_composite, ppo_style_clipped_surrogate) {
  vtm::util::rng gen(13);
  auto mean = nn::variable::parameter(random_tensor({6, 1}, gen));
  auto log_std = nn::variable::parameter(random_tensor({1, 1}, gen, -1.0, 0.0));
  auto actions = nn::variable::constant(random_tensor({6, 1}, gen));
  auto old_logp = nn::variable::constant(random_tensor({6, 1}, gen, -2.0, 0.0));
  auto adv = nn::variable::constant(random_tensor({6, 1}, gen));
  const auto result = nn::check_gradients(
      [&] {
        auto logp = nn::gaussian_log_prob(mean, log_std, actions);
        auto ratio = nn::exp(logp - old_logp);
        auto clipped = nn::clamp(ratio, 0.8, 1.2);
        return -nn::mean(nn::minimum(ratio * adv, clipped * adv));
      },
      {mean, log_std}, 1e-7, 2e-4);
  EXPECT_TRUE(result.passed) << result.detail;
}

// ---- forward-value checks ------------------------------------------------------

TEST(forward, op_values_match_std_functions) {
  auto x = nn::variable::constant(nn::tensor({1, 3}, {-1.0, 0.0, 2.0}));
  EXPECT_TRUE(nn::tanh(x).value().allclose(
      nn::tensor({1, 3}, {std::tanh(-1.0), 0.0, std::tanh(2.0)})));
  EXPECT_TRUE(nn::relu(x).value().allclose(nn::tensor({1, 3}, {0, 0, 2})));
  EXPECT_TRUE(nn::exp(x).value().allclose(
      nn::tensor({1, 3}, {std::exp(-1.0), 1.0, std::exp(2.0)})));
  EXPECT_TRUE(
      nn::clamp(x, -0.5, 1.0).value().allclose(nn::tensor({1, 3}, {-0.5, 0, 1})));
}

TEST(forward, log_rejects_non_positive) {
  auto x = nn::variable::constant(nn::tensor({1, 2}, {1.0, 0.0}));
  EXPECT_THROW((void)nn::log(x), vtm::util::contract_error);
}

TEST(forward, division_by_zero_rejected) {
  auto a = nn::variable::constant(nn::tensor::scalar(1.0));
  auto b = nn::variable::constant(nn::tensor::scalar(0.0));
  EXPECT_THROW((void)(a / b), vtm::util::contract_error);
}

TEST(forward, reductions) {
  auto x = nn::variable::constant(nn::tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(nn::sum(x).value().item(), 10.0);
  EXPECT_DOUBLE_EQ(nn::mean(x).value().item(), 2.5);
  EXPECT_TRUE(
      nn::sum_cols(x).value().allclose(nn::tensor({2, 1}, {3.0, 7.0})));
}

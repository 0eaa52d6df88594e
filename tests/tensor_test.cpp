// Unit tests for vtm::nn::tensor.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace nn = vtm::nn;

namespace {

nn::tensor random_tensor(nn::shape s, vtm::util::rng& gen) {
  nn::tensor t(s);
  for (auto& x : t.flat()) x = gen.normal();
  return t;
}

// True when both tensors have the same shape and bit-identical elements.
bool bitwise_equal(const nn::tensor& a, const nn::tensor& b) {
  if (a.dims() != b.dims()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a.flat()[i]) !=
        std::bit_cast<std::uint64_t>(b.flat()[i]))
      return false;
  return true;
}

// The matmul every trained policy was produced with, frozen verbatim: ikj
// order, each 4-term k-group sum added into the zeroed output row, then the
// scalar tail. Built with the same flags as the library, it contracts into
// FMAs the same way, so the kernels under test must match it bit for bit.
nn::tensor reference_matmul(const nn::tensor& lhs, const nn::tensor& rhs) {
  nn::tensor out({lhs.rows(), rhs.cols()});
  const std::size_t n = lhs.rows();
  const std::size_t inner = lhs.cols();
  const std::size_t m = rhs.cols();
  const std::size_t inner4 = inner & ~std::size_t{3};
  const double* __restrict lhs_data = lhs.flat().data();
  const double* __restrict rhs_data = rhs.flat().data();
  double* __restrict out_data = out.flat().data();
  for (std::size_t i = 0; i < n; ++i) {
    double* __restrict out_row = out_data + i * m;
    const double* __restrict lhs_row = lhs_data + i * inner;
    for (std::size_t k = 0; k < inner4; k += 4) {
      const double a0 = lhs_row[k];
      const double a1 = lhs_row[k + 1];
      const double a2 = lhs_row[k + 2];
      const double a3 = lhs_row[k + 3];
      const double* __restrict b0 = rhs_data + k * m;
      const double* __restrict b1 = b0 + m;
      const double* __restrict b2 = b1 + m;
      const double* __restrict b3 = b2 + m;
      for (std::size_t j = 0; j < m; ++j)
        out_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
    for (std::size_t k = inner4; k < inner; ++k) {
      const double a = lhs_row[k];
      const double* __restrict rhs_row = rhs_data + k * m;
      for (std::size_t j = 0; j < m; ++j) out_row[j] += a * rhs_row[j];
    }
  }
  return out;
}

}  // namespace

TEST(tensor, default_is_empty) {
  nn::tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(tensor, shape_constructor_zero_fills) {
  nn::tensor t({2, 3});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  for (double x : t.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(tensor, fill_constructor) {
  nn::tensor t({2, 2}, 7.5);
  for (double x : t.flat()) EXPECT_DOUBLE_EQ(x, 7.5);
}

TEST(tensor, data_constructor_rejects_size_mismatch) {
  EXPECT_THROW((void)nn::tensor({2, 2}, std::vector<double>{1.0, 2.0}),
               vtm::util::contract_error);
}

TEST(tensor, row_column_scalar_factories) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const auto r = nn::tensor::row(v);
  EXPECT_EQ(r.dims(), (nn::shape{1, 3}));
  const auto c = nn::tensor::column(v);
  EXPECT_EQ(c.dims(), (nn::shape{3, 1}));
  const auto s = nn::tensor::scalar(5.0);
  EXPECT_DOUBLE_EQ(s.item(), 5.0);
}

TEST(tensor, item_requires_scalar) {
  nn::tensor t({2, 1});
  EXPECT_THROW((void)t.item(), vtm::util::contract_error);
}

TEST(tensor, at_bounds_checked) {
  nn::tensor t({2, 2});
  EXPECT_NO_THROW((void)t.at(1, 1));
  EXPECT_THROW((void)t.at(2, 0), vtm::util::contract_error);
  EXPECT_THROW((void)t.at(0, 2), vtm::util::contract_error);
}

TEST(tensor, row_major_layout) {
  nn::tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(t(1, 2), 6.0);
}

TEST(tensor, matmul_known_product) {
  nn::tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  nn::tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const auto c = a.matmul(b);
  ASSERT_EQ(c.dims(), (nn::shape{2, 2}));
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(tensor, matmul_rejects_mismatched_inner_dim) {
  nn::tensor a({2, 3});
  nn::tensor b({2, 3});
  EXPECT_THROW((void)a.matmul(b), vtm::util::contract_error);
}

TEST(tensor, matmul_identity) {
  vtm::util::rng gen(3);
  nn::tensor a({4, 4});
  for (auto& x : a.flat()) x = gen.normal();
  nn::tensor eye({4, 4});
  for (std::size_t i = 0; i < 4; ++i) eye(i, i) = 1.0;
  EXPECT_TRUE(a.matmul(eye).allclose(a));
  EXPECT_TRUE(eye.matmul(a).allclose(a));
}

TEST(tensor, matmul_associative) {
  vtm::util::rng gen(5);
  nn::tensor a({3, 4}), b({4, 5}), c({5, 2});
  for (auto* t : {&a, &b, &c})
    for (auto& x : t->flat()) x = gen.normal();
  const auto left = a.matmul(b).matmul(c);
  const auto right = a.matmul(b.matmul(c));
  EXPECT_TRUE(left.allclose(right, 1e-9));
}

// Inner dims cover the unrolled k-groups alone (20, 64), the scalar tail
// alone (1, 3) and both (11); output widths cover whole register blocks
// (16, 64), a block plus leftovers (17), leftovers only (3) and the
// 1-column heads.
const std::vector<std::size_t> kRows{1, 5, 20};
const std::vector<std::size_t> kInner{1, 3, 11, 20, 64};
const std::vector<std::size_t> kCols{1, 3, 16, 17, 64};

TEST(tensor, matmul_matches_reference_kernel_bitwise) {
  vtm::util::rng gen(11);
  for (const std::size_t n : kRows)
    for (const std::size_t inner : kInner)
      for (const std::size_t m : kCols) {
        const auto a = random_tensor({n, inner}, gen);
        const auto b = random_tensor({inner, m}, gen);
        EXPECT_TRUE(bitwise_equal(a.matmul(b), reference_matmul(a, b)))
            << n << "x" << inner << " . " << inner << "x" << m;
      }
}

// Both accumulate paths: a zero target takes the product in place, a
// non-zero one adds it from scratch storage.
TEST(tensor, add_matmul_tn_equals_adding_transposed_matmul_bitwise) {
  vtm::util::rng gen(13);
  for (const std::size_t n : kRows)
    for (const std::size_t inner : kInner)
      for (const std::size_t m : kCols) {
        // (inner x n)^T · (inner x m): the dW = A^T·G shape of backward.
        const auto a = random_tensor({inner, n}, gen);
        const auto b = random_tensor({inner, m}, gen);
        const auto base = random_tensor({n, m}, gen);
        nn::tensor from_zero({n, m});
        from_zero.add_matmul_tn(a, b);
        EXPECT_TRUE(bitwise_equal(from_zero, a.transposed().matmul(b)))
            << inner << "x" << n << "^T . " << inner << "x" << m;
        EXPECT_TRUE(
            bitwise_equal(from_zero, reference_matmul(a.transposed(), b)));
        nn::tensor onto_base = base;
        onto_base.add_matmul_tn(a, b);
        EXPECT_TRUE(
            bitwise_equal(onto_base, base + a.transposed().matmul(b)));
      }
}

TEST(tensor, add_matmul_nt_equals_adding_matmul_of_transpose_bitwise) {
  vtm::util::rng gen(17);
  for (const std::size_t n : kRows)
    for (const std::size_t inner : kInner)
      for (const std::size_t m : kCols) {
        // (n x inner) · (m x inner)^T: the dX = G·W^T shape of backward.
        const auto a = random_tensor({n, inner}, gen);
        const auto b = random_tensor({m, inner}, gen);
        const auto base = random_tensor({n, m}, gen);
        nn::tensor from_zero({n, m});
        from_zero.add_matmul_nt(a, b);
        EXPECT_TRUE(bitwise_equal(from_zero, a.matmul(b.transposed())))
            << n << "x" << inner << " . " << m << "x" << inner << "^T";
        EXPECT_TRUE(
            bitwise_equal(from_zero, reference_matmul(a, b.transposed())));
        nn::tensor onto_base = base;
        onto_base.add_matmul_nt(a, b);
        EXPECT_TRUE(
            bitwise_equal(onto_base, base + a.matmul(b.transposed())));
      }
}

TEST(tensor, transposed_products_reject_mismatched_dims) {
  const nn::tensor a({2, 3});
  const nn::tensor b({4, 3});
  nn::tensor out({2, 4});
  EXPECT_THROW(out.add_matmul_tn(a, b), vtm::util::contract_error);
  EXPECT_THROW(out.add_matmul_nt(a, nn::tensor({3, 2})),
               vtm::util::contract_error);
  nn::tensor wrong_shape({4, 2});
  EXPECT_THROW(wrong_shape.add_matmul_nt(a, b), vtm::util::contract_error);
  EXPECT_NO_THROW(out.add_matmul_nt(a, b));
  nn::tensor tn_out({3, 5});
  EXPECT_NO_THROW(tn_out.add_matmul_tn(b, nn::tensor({4, 5})));
}

TEST(tensor, transpose_involution) {
  vtm::util::rng gen(7);
  nn::tensor a({3, 5});
  for (auto& x : a.flat()) x = gen.normal();
  EXPECT_TRUE(a.transposed().transposed().allclose(a));
  EXPECT_EQ(a.transposed().dims(), (nn::shape{5, 3}));
}

TEST(tensor, transpose_of_product) {
  vtm::util::rng gen(9);
  nn::tensor a({3, 4}), b({4, 2});
  for (auto* t : {&a, &b})
    for (auto& x : t->flat()) x = gen.normal();
  // (AB)ᵀ == Bᵀ Aᵀ
  const auto lhs = a.matmul(b).transposed();
  const auto rhs = b.transposed().matmul(a.transposed());
  EXPECT_TRUE(lhs.allclose(rhs, 1e-9));
}

TEST(tensor, elementwise_arithmetic) {
  nn::tensor a({1, 3}, {1, 2, 3});
  nn::tensor b({1, 3}, {10, 20, 30});
  EXPECT_TRUE((a + b).allclose(nn::tensor({1, 3}, {11, 22, 33})));
  EXPECT_TRUE((b - a).allclose(nn::tensor({1, 3}, {9, 18, 27})));
  EXPECT_TRUE(a.hadamard(b).allclose(nn::tensor({1, 3}, {10, 40, 90})));
  EXPECT_TRUE((a * 2.0).allclose(nn::tensor({1, 3}, {2, 4, 6})));
  EXPECT_TRUE((a + 1.0).allclose(nn::tensor({1, 3}, {2, 3, 4})));
}

TEST(tensor, elementwise_shape_mismatch_rejected) {
  nn::tensor a({1, 3});
  nn::tensor b({3, 1});
  EXPECT_THROW((void)(a + b), vtm::util::contract_error);
  EXPECT_THROW((void)(a - b), vtm::util::contract_error);
  EXPECT_THROW((void)a.hadamard(b), vtm::util::contract_error);
}

TEST(tensor, accumulate_and_reductions) {
  nn::tensor a({2, 2}, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(a.sum(), -2.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  nn::tensor b({2, 2}, 1.0);
  b += a;
  EXPECT_TRUE(b.allclose(nn::tensor({2, 2}, {2, -1, 4, -3})));
}

TEST(tensor, row_at_extracts_row) {
  nn::tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(a.row_at(1).allclose(nn::tensor({1, 3}, {4, 5, 6})));
  EXPECT_THROW((void)a.row_at(2), vtm::util::contract_error);
}

TEST(tensor, apply_elementwise) {
  nn::tensor a({1, 3}, {1, 4, 9});
  a.apply([](double x) { return x * 10.0; });
  EXPECT_TRUE(a.allclose(nn::tensor({1, 3}, {10, 40, 90})));
}

TEST(tensor, allclose_tolerance) {
  nn::tensor a({1, 2}, {1.0, 2.0});
  nn::tensor b({1, 2}, {1.0 + 1e-10, 2.0});
  EXPECT_TRUE(a.allclose(b, 1e-9));
  EXPECT_FALSE(a.allclose(b, 1e-11));
  nn::tensor c({2, 1}, {1.0, 2.0});
  EXPECT_FALSE(a.allclose(c));  // shape mismatch
}

TEST(tensor, to_string_shape) {
  EXPECT_EQ(nn::to_string(nn::shape{3, 7}), "3x7");
}

#include "nn/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/contracts.hpp"

namespace vtm::nn {

std::string to_string(shape s) {
  return std::to_string(s.rows) + "x" + std::to_string(s.cols);
}

tensor::tensor(shape s) : shape_(s), data_(s.size(), 0.0) {}

tensor::tensor(shape s, double fill) : shape_(s), data_(s.size(), fill) {}

tensor::tensor(shape s, std::vector<double> data)
    : shape_(s), data_(std::move(data)) {
  VTM_EXPECTS(data_.size() == shape_.size());
}

tensor tensor::row(std::span<const double> values) {
  return tensor({1, values.size()},
                std::vector<double>(values.begin(), values.end()));
}

tensor tensor::column(std::span<const double> values) {
  return tensor({values.size(), 1},
                std::vector<double>(values.begin(), values.end()));
}

tensor tensor::scalar(double value) { return tensor({1, 1}, {value}); }

double& tensor::at(std::size_t r, std::size_t c) {
  VTM_EXPECTS(r < rows() && c < cols());
  return (*this)(r, c);
}

double tensor::at(std::size_t r, std::size_t c) const {
  VTM_EXPECTS(r < rows() && c < cols());
  return (*this)(r, c);
}

double tensor::item() const {
  VTM_EXPECTS(size() == 1);
  return data_[0];
}

void tensor::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {

// Output columns per register block: four vectors of accumulators at
// 256-bit width (two at 512).
constexpr std::size_t block_cols = 16;

// out (n x m) = lhs · rhs, where lhs(i, k) = lhs[i * lhs_row + k * lhs_col]
// (so a transposed lhs is just a stride swap) and rhs is row-major
// inner x m. Every product variant shares this kernel, so every output
// element is built by the expression of a plain ikj loop over zeroed
// output: starting from 0, add each 4-term k-group sum
// a0*b0 + a1*b1 + a2*b2 + a3*b3 in k order, then each scalar tail term.
// Under -march=native GCC contracts those adds into FMAs, so any other
// summation shape would round differently.
//
// Within that constraint the loop nest is free: a row's columns go in
// blocks of `block_cols` accumulators that stay in vector registers across
// the whole k loop, so `out` is written once, not read and written per
// k-group. This is the hottest loop in the library: every policy forward
// (rollout and PPO update alike) and every matmul backward lands here.
void matmul_kernel(const double* __restrict lhs, std::size_t lhs_row,
                   std::size_t lhs_col, const double* __restrict rhs,
                   double* __restrict out, std::size_t n, std::size_t inner,
                   std::size_t m) {
  const std::size_t inner4 = inner & ~std::size_t{3};
  for (std::size_t i = 0; i < n; ++i) {
    const double* __restrict a = lhs + i * lhs_row;
    double* __restrict out_row = out + i * m;
    std::size_t j0 = 0;
    for (; j0 + block_cols <= m; j0 += block_cols) {
      double acc[block_cols] = {};
      for (std::size_t k = 0; k < inner4; k += 4) {
        const double a0 = a[k * lhs_col];
        const double a1 = a[(k + 1) * lhs_col];
        const double a2 = a[(k + 2) * lhs_col];
        const double a3 = a[(k + 3) * lhs_col];
        const double* __restrict b0 = rhs + k * m + j0;
        const double* __restrict b1 = b0 + m;
        const double* __restrict b2 = b1 + m;
        const double* __restrict b3 = b2 + m;
        for (std::size_t jj = 0; jj < block_cols; ++jj)
          acc[jj] += a0 * b0[jj] + a1 * b1[jj] + a2 * b2[jj] + a3 * b3[jj];
      }
      for (std::size_t k = inner4; k < inner; ++k) {
        const double ak = a[k * lhs_col];
        const double* __restrict b = rhs + k * m + j0;
        for (std::size_t jj = 0; jj < block_cols; ++jj) acc[jj] += ak * b[jj];
      }
      for (std::size_t jj = 0; jj < block_cols; ++jj)
        out_row[j0 + jj] = acc[jj];
    }
    // Leftover columns — all of them for a 1-column product — run the same
    // chain in a scalar accumulator. The tail is straight-line code: as a
    // loop, GCC vectorizes it into an in-order reduction that rounds each
    // product apart from its add instead of contracting the two.
    for (std::size_t j = j0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < inner4; k += 4)
        acc += a[k * lhs_col] * rhs[k * m + j] +
               a[(k + 1) * lhs_col] * rhs[(k + 1) * m + j] +
               a[(k + 2) * lhs_col] * rhs[(k + 2) * m + j] +
               a[(k + 3) * lhs_col] * rhs[(k + 3) * m + j];
      const std::size_t k = inner4;  // at most three tail terms
      if (k < inner) acc += a[k * lhs_col] * rhs[k * m + j];
      if (k + 1 < inner) acc += a[(k + 1) * lhs_col] * rhs[(k + 1) * m + j];
      if (k + 2 < inner) acc += a[(k + 2) * lhs_col] * rhs[(k + 2) * m + j];
      out_row[j] = acc;
    }
  }
}

// target += the product that `write_product(out)` writes in full. Every
// kernel element is summed up from +0, so a product never holds -0; on a
// target that is still all zero, 0 + p is therefore p bit for bit, and the
// product is written in place. Otherwise it goes through reused
// thread-local storage and is added, as `target += product` would.
template <class WriteProduct>
void add_product(std::span<double> target, WriteProduct write_product) {
  // OR of every element's bits but the sign: zero exactly when all are ±0.
  // Integer ORs vectorize; a chain of double compares does not.
  std::uint64_t magnitude_bits = 0;
  for (const double x : target)
    magnitude_bits |= std::bit_cast<std::uint64_t>(x) << 1;
  if (magnitude_bits == 0) {
    write_product(target.data());
    return;
  }
  thread_local std::vector<double> product_storage;
  product_storage.resize(target.size());
  write_product(product_storage.data());
  for (std::size_t i = 0; i < target.size(); ++i)
    target[i] += product_storage[i];
}

}  // namespace

tensor tensor::matmul(const tensor& rhs) const {
  VTM_EXPECTS(cols() == rhs.rows());
  tensor out({rows(), rhs.cols()});
  matmul_kernel(data_.data(), cols(), 1, rhs.data_.data(), out.data_.data(),
                rows(), cols(), rhs.cols());
  return out;
}

void tensor::add_matmul_tn(const tensor& a, const tensor& b) {
  VTM_EXPECTS(a.rows() == b.rows());
  VTM_EXPECTS(dims() == (shape{a.cols(), b.cols()}));
  add_product(data_, [&](double* out) {
    matmul_kernel(a.data_.data(), 1, a.cols(), b.data_.data(), out, a.cols(),
                  a.rows(), b.cols());
  });
}

void tensor::add_matmul_nt(const tensor& a, const tensor& b) {
  VTM_EXPECTS(a.cols() == b.cols());
  VTM_EXPECTS(dims() == (shape{a.rows(), b.rows()}));
  const double* b_t = b.data_.data();
  // A vector's transpose has the same row-major data; a matrix is
  // transposed into storage reused across calls.
  thread_local std::vector<double> transpose_storage;
  if (b.rows() > 1 && b.cols() > 1) {
    transpose_storage.resize(b.size());
    // Strided reads, contiguous writes: about twice as fast as the reverse.
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t i = 0; i < b.rows(); ++i)
        transpose_storage[j * b.rows() + i] = b(i, j);
    b_t = transpose_storage.data();
  }
  add_product(data_, [&](double* out) {
    matmul_kernel(a.data_.data(), a.cols(), 1, b_t, out, a.rows(), a.cols(),
                  b.rows());
  });
}

tensor tensor::transposed() const {
  tensor out({cols(), rows()});
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t j = 0; j < cols(); ++j) out(j, i) = (*this)(i, j);
  return out;
}

tensor tensor::operator+(const tensor& rhs) const {
  VTM_EXPECTS(dims() == rhs.dims());
  tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

tensor tensor::operator-(const tensor& rhs) const {
  VTM_EXPECTS(dims() == rhs.dims());
  tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

tensor tensor::hadamard(const tensor& rhs) const {
  VTM_EXPECTS(dims() == rhs.dims());
  tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= rhs.data_[i];
  return out;
}

tensor tensor::operator*(double s) const {
  tensor out = *this;
  for (auto& x : out.data_) x *= s;
  return out;
}

tensor tensor::operator+(double s) const {
  tensor out = *this;
  for (auto& x : out.data_) x += s;
  return out;
}

tensor& tensor::operator+=(const tensor& rhs) {
  VTM_EXPECTS(dims() == rhs.dims());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

double tensor::sum() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

double tensor::max_abs() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

tensor tensor::row_at(std::size_t r) const {
  VTM_EXPECTS(r < rows());
  tensor out({1, cols()});
  for (std::size_t j = 0; j < cols(); ++j) out(0, j) = (*this)(r, j);
  return out;
}

void tensor::set_row(std::size_t r, const tensor& row) {
  VTM_EXPECTS(r < rows());
  VTM_EXPECTS(row.dims() == (shape{1, cols()}));
  for (std::size_t j = 0; j < cols(); ++j) (*this)(r, j) = row(0, j);
}

bool tensor::allclose(const tensor& rhs, double tol) const {
  if (dims() != rhs.dims()) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::abs(data_[i] - rhs.data_[i]) > tol) return false;
  return true;
}

}  // namespace vtm::nn

// Dense row-major 2-D tensor of doubles.
//
// This is the numeric value type underneath the autograd tape (autograd.hpp).
// RL workloads here are small MLPs (batch x features), so a 2-D tensor with
// explicit shapes — a row vector is 1 x n — keeps the API honest and the
// bugs shallow. All shape mismatches are contract violations, not UB.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace vtm::nn {

/// Shape of a 2-D tensor: rows x cols.
struct shape {
  std::size_t rows = 0;
  std::size_t cols = 0;

  [[nodiscard]] std::size_t size() const noexcept { return rows * cols; }
  [[nodiscard]] bool operator==(const shape&) const noexcept = default;
};

/// Render a shape as "RxC" for diagnostics.
[[nodiscard]] std::string to_string(shape s);

/// Dense row-major matrix of doubles with value semantics.
class tensor {
 public:
  /// Empty 0x0 tensor.
  tensor() noexcept = default;

  /// Zero-initialized tensor of the given shape.
  explicit tensor(shape s);

  /// Tensor of the given shape filled with `fill`.
  tensor(shape s, double fill);

  /// Tensor of the given shape taking ownership of `data` (row-major).
  /// Requires data.size() == s.size().
  tensor(shape s, std::vector<double> data);

  /// 1 x n row vector from values.
  [[nodiscard]] static tensor row(std::span<const double> values);

  /// n x 1 column vector from values.
  [[nodiscard]] static tensor column(std::span<const double> values);

  /// Scalar 1 x 1 tensor.
  [[nodiscard]] static tensor scalar(double value);

  [[nodiscard]] shape dims() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rows() const noexcept { return shape_.rows; }
  [[nodiscard]] std::size_t cols() const noexcept { return shape_.cols; }
  [[nodiscard]] std::size_t size() const noexcept { return shape_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Element access with bounds contracts.
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Unchecked element access (hot paths).
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * shape_.cols + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * shape_.cols + c];
  }

  /// Value of a 1 x 1 tensor. Requires size() == 1.
  [[nodiscard]] double item() const;

  /// Flat row-major view of the data.
  [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }
  [[nodiscard]] std::span<double> flat() noexcept { return data_; }

  /// Set every element to `value`.
  void fill(double value) noexcept;

  /// Apply `fn` elementwise in place.
  template <class Fn>
  void apply(Fn fn) {
    for (double& x : data_) x = fn(x);
  }

  /// Matrix product; requires cols() == rhs.rows().
  [[nodiscard]] tensor matmul(const tensor& rhs) const;

  /// this += aᵀ · b without materializing the transpose or the product;
  /// requires a.rows() == b.rows() and dims() == a.cols() x b.cols().
  /// Bitwise equal to `*this += a.transposed().matmul(b)`.
  void add_matmul_tn(const tensor& a, const tensor& b);

  /// this += a · bᵀ; requires a.cols() == b.cols() and
  /// dims() == a.rows() x b.rows(). Bitwise equal to
  /// `*this += a.matmul(b.transposed())`. A matrix b is transposed into
  /// reused thread-local storage; a vector (one row or column) needs none.
  void add_matmul_nt(const tensor& a, const tensor& b);

  /// Transpose.
  [[nodiscard]] tensor transposed() const;

  /// Elementwise arithmetic; all require matching shapes.
  [[nodiscard]] tensor operator+(const tensor& rhs) const;
  [[nodiscard]] tensor operator-(const tensor& rhs) const;
  [[nodiscard]] tensor hadamard(const tensor& rhs) const;

  /// Scalar arithmetic.
  [[nodiscard]] tensor operator*(double s) const;
  [[nodiscard]] tensor operator+(double s) const;

  /// In-place accumulate; requires matching shapes.
  tensor& operator+=(const tensor& rhs);

  /// Sum of all elements.
  [[nodiscard]] double sum() const noexcept;

  /// Largest absolute element; 0 for empty tensors.
  [[nodiscard]] double max_abs() const noexcept;

  /// Extract row r as a 1 x cols tensor.
  [[nodiscard]] tensor row_at(std::size_t r) const;

  /// Overwrite row r from a 1 x cols row tensor. Requires matching width.
  void set_row(std::size_t r, const tensor& row);

  /// True when shapes match and elements differ by at most `tol`.
  [[nodiscard]] bool allclose(const tensor& rhs, double tol = 1e-9) const;

 private:
  shape shape_{};
  std::vector<double> data_;
};

}  // namespace vtm::nn

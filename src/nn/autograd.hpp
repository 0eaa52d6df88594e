// Reverse-mode automatic differentiation on a dynamic tape.
//
// A `variable` is a value-semantics handle to a node in a dynamically-built
// computation graph over `tensor`s. Building expressions records the graph;
// `backward(root)` on a scalar root accumulates d(root)/d(node) into every
// node's `grad()`. Leaves created with `variable::parameter` are trainable;
// leaves created with `variable::constant` are inputs/targets.
//
// The op set is exactly what PPO with a diagonal-Gaussian policy and a shared
// actor-critic trunk needs (matmul, affine layers, tanh/relu, exp/log,
// elementwise arithmetic, clamp, minimum, reductions). Every op's gradient is
// validated against finite differences in tests (see gradcheck.hpp).
#pragma once

#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace vtm::nn {

namespace detail {
struct node;
}  // namespace detail

/// Handle to a node of the autograd tape.
class variable {
 public:
  /// Empty handle; most operations require a non-empty one.
  variable() noexcept = default;

  /// Non-trainable leaf (input data, targets, fixed coefficients).
  [[nodiscard]] static variable constant(tensor value);

  /// Trainable leaf: participates in backward and optimizer steps.
  [[nodiscard]] static variable parameter(tensor value);

  /// True when the handle points at a node.
  [[nodiscard]] bool valid() const noexcept { return node_ != nullptr; }

  /// Forward value. Requires valid().
  [[nodiscard]] const tensor& value() const;

  /// Accumulated gradient (same shape as value). Requires valid(); zero
  /// before the first backward() that touches this node.
  [[nodiscard]] const tensor& grad() const;

  /// Shape of value().
  [[nodiscard]] shape dims() const;

  /// Whether gradients flow into this node.
  [[nodiscard]] bool requires_grad() const;

  /// Replace the value of a leaf. Requires the same shape and that this
  /// node is a leaf.
  void set_value(tensor value);

  /// The value of a leaf, for in-place updates (optimizer steps, clamps,
  /// reused input storage). Requires that this node is a leaf.
  [[nodiscard]] tensor& mutable_value();

  /// The accumulated gradient, for in-place updates (clipping, optimizer
  /// steps). Keep the shape.
  [[nodiscard]] tensor& mutable_grad();

  /// Reset this node's gradient to zero.
  void zero_grad();

  /// Add `delta` into this node's gradient (used by gradient clipping and by
  /// tests). Requires the same shape as value().
  void accumulate_grad(const tensor& delta);

  /// Identity used for hashing/visited sets.
  [[nodiscard]] const void* id() const noexcept { return node_.get(); }

 private:
  explicit variable(std::shared_ptr<detail::node> n) : node_(std::move(n)) {}
  std::shared_ptr<detail::node> node_;

  friend struct graph_ops;
};

/// Run reverse-mode differentiation from a scalar root (shape 1x1).
/// Gradients accumulate into grad() of every reachable node; call zero_grad()
/// on parameters between backward passes (optimizers do this for you).
void backward(const variable& root);

// ---- graph-building operations ------------------------------------------

/// Elementwise sum; shapes must match.
[[nodiscard]] variable operator+(const variable& a, const variable& b);
/// Elementwise difference; shapes must match.
[[nodiscard]] variable operator-(const variable& a, const variable& b);
/// Elementwise (Hadamard) product; shapes must match.
[[nodiscard]] variable operator*(const variable& a, const variable& b);
/// Elementwise quotient; shapes must match; denominator must be nonzero.
[[nodiscard]] variable operator/(const variable& a, const variable& b);

/// Scale by a constant.
[[nodiscard]] variable operator*(const variable& a, double s);
[[nodiscard]] variable operator*(double s, const variable& a);
/// Shift by a constant.
[[nodiscard]] variable operator+(const variable& a, double s);
[[nodiscard]] variable operator-(const variable& a, double s);
/// Negation.
[[nodiscard]] variable operator-(const variable& a);

/// Matrix product: (m x k) · (k x n) -> (m x n).
[[nodiscard]] variable matmul(const variable& a, const variable& b);

/// Affine map x · w + b: (m x k) · (k x n), then the 1 x n row b added to
/// every row. One node: the same values and gradients, bit for bit, as
/// matmul(x, w) + tile_rows(b, m), without the intermediate.
[[nodiscard]] variable affine(const variable& x, const variable& w,
                              const variable& b);

/// Tile a 1 x d row vector into n identical rows (gradient: column sums).
[[nodiscard]] variable tile_rows(const variable& row, std::size_t n);

/// Hyperbolic tangent, elementwise.
[[nodiscard]] variable tanh(const variable& a);
/// Rectified linear unit, elementwise.
[[nodiscard]] variable relu(const variable& a);
/// Logistic sigmoid, elementwise.
[[nodiscard]] variable sigmoid(const variable& a);
/// Natural exponential, elementwise.
[[nodiscard]] variable exp(const variable& a);
/// Natural logarithm, elementwise; requires strictly positive values.
[[nodiscard]] variable log(const variable& a);
/// Elementwise square.
[[nodiscard]] variable square(const variable& a);

/// Clamp into [lo, hi]; gradient is 1 inside the interval, 0 outside.
[[nodiscard]] variable clamp(const variable& a, double lo, double hi);

/// Elementwise minimum; subgradient follows the smaller operand (ties -> a).
[[nodiscard]] variable minimum(const variable& a, const variable& b);

/// Sum of all elements -> 1 x 1.
[[nodiscard]] variable sum(const variable& a);
/// Mean of all elements -> 1 x 1.
[[nodiscard]] variable mean(const variable& a);
/// Per-row sum over columns: m x d -> m x 1.
[[nodiscard]] variable sum_cols(const variable& a);

/// Block the gradient: value passes through, backward stops here.
[[nodiscard]] variable stop_gradient(const variable& a);

}  // namespace vtm::nn

#include "nn/autograd.hpp"

#include <array>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <span>
#include <utility>

#include "util/contracts.hpp"

namespace vtm::nn {

namespace detail {

struct node {
  tensor value;
  // Parameters get their (zero) gradient with the node; every other node
  // gets it on first use: backward() for interior nodes, grad() for reads.
  tensor grad;
  bool requires_grad = false;
  bool is_leaf = true;
  bool visited = false;  // backward()'s DFS mark; clear between passes
  std::array<std::shared_ptr<node>, 3> parents;  // unused slots stay null
  // Reads this->grad and accumulates into parents' grads.
  std::function<void(const node&)> backprop;
};

}  // namespace detail

using detail::node;

namespace {

// Zero gradient storage of the node's shape, allocated on first use.
tensor& zeroed_grad(node& n) {
  if (n.grad.dims() != n.value.dims())
    n.grad = tensor(n.value.dims());
  else
    n.grad.fill(0.0);
  return n.grad;
}

tensor& grad_storage(node& n) {
  return n.grad.dims() == n.value.dims() ? n.grad : zeroed_grad(n);
}

}  // namespace

// Shared helpers for building interior nodes. Kept in a struct so it can be
// friended by `variable` once instead of per-function.
struct graph_ops {
  static const std::shared_ptr<node>& raw(const variable& v) {
    return v.node_;
  }

  static variable wrap(std::shared_ptr<node> n) {
    return variable(std::move(n));
  }

  static variable make(
      tensor value,
      std::initializer_list<std::reference_wrapper<const variable>> parents,
      std::function<void(const node&)> backprop) {
    auto n = std::make_shared<node>();
    n->value = std::move(value);
    n->is_leaf = false;
    VTM_EXPECTS(parents.size() <= n->parents.size());
    std::size_t i = 0;
    for (const variable& p : parents) {
      VTM_EXPECTS(p.valid());
      n->requires_grad = n->requires_grad || p.requires_grad();
      n->parents[i++] = raw(p);
    }
    if (n->requires_grad) n->backprop = std::move(backprop);
    return wrap(std::move(n));
  }
};

namespace {

node& parent(const node& n, std::size_t i) { return *n.parents[i]; }

// Backward temporaries live in storage reused across calls; backward() is
// not reentrant, so one buffer per thread suffices.
std::span<double> scratch(std::size_t n) {
  thread_local std::vector<double> storage;
  if (storage.size() < n) storage.resize(n);
  return {storage.data(), n};
}

// p.grad += g with g[i] = term(i) rounded on its own first, as for a
// materialized g. Hence two passes: fused into `grad[i] += x * y`, GCC's
// default -ffp-contract=fast would emit one FMA and round once instead of
// twice. Terms that are not a product (a sum, a quotient, a select)
// accumulate directly instead.
template <class Term>
void accumulate(node& p, Term term) {
  const std::span<double> g = scratch(p.grad.size());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = term(i);
  double* __restrict pg = p.grad.flat().data();
  for (std::size_t i = 0; i < g.size(); ++i) pg[i] += g[i];
}

// p.grad (1 x d) += column sums of g (m x d); the sums start from zero and
// run row by row before the add, as for a materialized column-sum row.
void accumulate_column_sums(node& p, const tensor& g) {
  const std::span<double> sums = scratch(g.cols());
  std::fill(sums.begin(), sums.end(), 0.0);
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t c = 0; c < g.cols(); ++c) sums[c] += g(r, c);
  double* __restrict pg = p.grad.flat().data();
  for (std::size_t c = 0; c < sums.size(); ++c) pg[c] += sums[c];
}

}  // namespace

variable variable::constant(tensor value) {
  auto n = std::make_shared<node>();
  n->value = std::move(value);
  n->requires_grad = false;
  return graph_ops::wrap(std::move(n));
}

variable variable::parameter(tensor value) {
  auto n = std::make_shared<node>();
  n->grad = tensor(value.dims());
  n->value = std::move(value);
  n->requires_grad = true;
  return graph_ops::wrap(std::move(n));
}

const tensor& variable::value() const {
  VTM_EXPECTS(valid());
  return node_->value;
}

const tensor& variable::grad() const {
  VTM_EXPECTS(valid());
  return grad_storage(*node_);
}

tensor& variable::mutable_value() {
  VTM_EXPECTS(valid());
  VTM_EXPECTS(node_->is_leaf);
  return node_->value;
}

tensor& variable::mutable_grad() {
  VTM_EXPECTS(valid());
  return grad_storage(*node_);
}

shape variable::dims() const { return value().dims(); }

bool variable::requires_grad() const {
  VTM_EXPECTS(valid());
  return node_->requires_grad;
}

void variable::set_value(tensor value) {
  VTM_EXPECTS(valid());
  VTM_EXPECTS(node_->is_leaf);
  VTM_EXPECTS(value.dims() == node_->value.dims());
  node_->value = std::move(value);
}

void variable::zero_grad() {
  VTM_EXPECTS(valid());
  zeroed_grad(*node_);
}

void variable::accumulate_grad(const tensor& delta) {
  VTM_EXPECTS(valid());
  VTM_EXPECTS(delta.dims() == node_->value.dims());
  grad_storage(*node_) += delta;
}

void backward(const variable& root) {
  VTM_EXPECTS(root.valid());
  VTM_EXPECTS(root.dims() == (shape{1, 1}));

  // Iterative post-order DFS -> topological order (parents before children
  // in `order`). The traversal storage is reused across calls.
  struct frame {
    node* n;
    std::size_t next_parent;
  };
  thread_local std::vector<node*> order;
  thread_local std::vector<frame> stack;
  order.clear();
  stack.clear();
  node* root_node = graph_ops::raw(root).get();
  stack.push_back({root_node, 0});
  root_node->visited = true;
  while (!stack.empty()) {
    frame& top = stack.back();
    if (top.next_parent < top.n->parents.size() &&
        top.n->parents[top.next_parent]) {
      node* p = top.n->parents[top.next_parent++].get();
      if (!p->visited) {
        p->visited = true;
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(top.n);
      stack.pop_back();
    }
  }
  for (node* n : order) n->visited = false;

  // Fresh gradient accumulation for this pass over interior nodes that
  // receive gradient. Leaf (parameter) gradients are preserved so callers
  // control accumulation via zero_grad() / the optimizer.
  for (node* n : order) {
    if (!n->is_leaf && n->requires_grad) zeroed_grad(*n);
  }
  grad_storage(*root_node).fill(1.0);

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    node* n = *it;
    if (n->requires_grad && n->backprop) n->backprop(*n);
  }
}

// ---- elementwise binary ops ----------------------------------------------

variable operator+(const variable& a, const variable& b) {
  VTM_EXPECTS(a.dims() == b.dims());
  return graph_ops::make(a.value() + b.value(), {a, b}, [](const node& self) {
    if (parent(self, 0).requires_grad) parent(self, 0).grad += self.grad;
    if (parent(self, 1).requires_grad) parent(self, 1).grad += self.grad;
  });
}

variable operator-(const variable& a, const variable& b) {
  VTM_EXPECTS(a.dims() == b.dims());
  return graph_ops::make(a.value() - b.value(), {a, b}, [](const node& self) {
    if (parent(self, 0).requires_grad) parent(self, 0).grad += self.grad;
    if (parent(self, 1).requires_grad) {
      // x - g is x + (-g) exactly, so no temporary is needed.
      double* __restrict pg = parent(self, 1).grad.flat().data();
      const double* __restrict g = self.grad.flat().data();
      for (std::size_t i = 0; i < self.grad.size(); ++i) pg[i] -= g[i];
    }
  });
}

variable operator*(const variable& a, const variable& b) {
  VTM_EXPECTS(a.dims() == b.dims());
  return graph_ops::make(
      a.value().hadamard(b.value()), {a, b}, [](const node& self) {
        const std::span<const double> g = self.grad.flat();
        if (parent(self, 0).requires_grad) {
          const std::span<const double> bv = parent(self, 1).value.flat();
          accumulate(parent(self, 0),
                     [&](std::size_t i) { return g[i] * bv[i]; });
        }
        if (parent(self, 1).requires_grad) {
          const std::span<const double> av = parent(self, 0).value.flat();
          accumulate(parent(self, 1),
                     [&](std::size_t i) { return g[i] * av[i]; });
        }
      });
}

variable operator/(const variable& a, const variable& b) {
  VTM_EXPECTS(a.dims() == b.dims());
  tensor out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    VTM_EXPECTS(b.value().flat()[i] != 0.0);
    out.flat()[i] /= b.value().flat()[i];
  }
  return graph_ops::make(std::move(out), {a, b}, [](const node& self) {
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> bv = parent(self, 1).value.flat();
    if (parent(self, 0).requires_grad) {
      const std::span<double> pg = parent(self, 0).grad.flat();
      for (std::size_t i = 0; i < pg.size(); ++i) pg[i] += g[i] / bv[i];
    }
    if (parent(self, 1).requires_grad) {
      // d(a/b)/db = -a / b^2 = -value / b
      const std::span<const double> y = self.value.flat();
      const std::span<double> pg = parent(self, 1).grad.flat();
      for (std::size_t i = 0; i < pg.size(); ++i)
        pg[i] += g[i] * y[i] / -bv[i];
    }
  });
}

// ---- scalar ops -----------------------------------------------------------

variable operator*(const variable& a, double s) {
  return graph_ops::make(a.value() * s, {a}, [s](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    accumulate(parent(self, 0), [&](std::size_t i) { return g[i] * s; });
  });
}

variable operator*(double s, const variable& a) { return a * s; }

variable operator+(const variable& a, double s) {
  return graph_ops::make(a.value() + s, {a}, [](const node& self) {
    if (parent(self, 0).requires_grad) parent(self, 0).grad += self.grad;
  });
}

variable operator-(const variable& a, double s) { return a + (-s); }

variable operator-(const variable& a) { return a * -1.0; }

// ---- linear algebra --------------------------------------------------------

variable matmul(const variable& a, const variable& b) {
  VTM_EXPECTS(a.dims().cols == b.dims().rows);
  return graph_ops::make(
      a.value().matmul(b.value()), {a, b}, [](const node& self) {
        // dL/dA = dL/dY · Bᵀ ;  dL/dB = Aᵀ · dL/dY
        if (parent(self, 0).requires_grad)
          parent(self, 0).grad.add_matmul_nt(self.grad, parent(self, 1).value);
        if (parent(self, 1).requires_grad)
          parent(self, 1).grad.add_matmul_tn(parent(self, 0).value, self.grad);
      });
}

variable affine(const variable& x, const variable& w, const variable& b) {
  VTM_EXPECTS(x.dims().cols == w.dims().rows);
  VTM_EXPECTS(b.dims() == (shape{1, w.dims().cols}));
  tensor out = x.value().matmul(w.value());
  for (std::size_t r = 0; r < out.rows(); ++r)
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += b.value()(0, c);
  return graph_ops::make(std::move(out), {x, w, b}, [](const node& self) {
    // The gradient reaching x · w is self.grad itself: a zeroed gradient
    // plus self.grad, which never holds -0, is self.grad bit for bit.
    if (parent(self, 0).requires_grad)
      parent(self, 0).grad.add_matmul_nt(self.grad, parent(self, 1).value);
    if (parent(self, 1).requires_grad)
      parent(self, 1).grad.add_matmul_tn(parent(self, 0).value, self.grad);
    if (parent(self, 2).requires_grad)
      accumulate_column_sums(parent(self, 2), self.grad);
  });
}

variable tile_rows(const variable& row, std::size_t n) {
  VTM_EXPECTS(row.dims().rows == 1);
  VTM_EXPECTS(n >= 1);
  tensor out({n, row.dims().cols});
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) = row.value()(0, c);
  return graph_ops::make(std::move(out), {row}, [](const node& self) {
    if (parent(self, 0).requires_grad)
      accumulate_column_sums(parent(self, 0), self.grad);
  });
}

// ---- elementwise nonlinearities --------------------------------------------

variable tanh(const variable& a) {
  tensor out = a.value();
  out.apply([](double x) { return std::tanh(x); });
  return graph_ops::make(std::move(out), {a}, [](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> y = self.value.flat();
    accumulate(parent(self, 0),
               [&](std::size_t i) { return g[i] * (1.0 - y[i] * y[i]); });
  });
}

variable relu(const variable& a) {
  tensor out = a.value();
  out.apply([](double x) { return x > 0.0 ? x : 0.0; });
  return graph_ops::make(std::move(out), {a}, [](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> x = parent(self, 0).value.flat();
    const std::span<double> pg = parent(self, 0).grad.flat();
    for (std::size_t i = 0; i < pg.size(); ++i)
      pg[i] += x[i] <= 0.0 ? 0.0 : g[i];
  });
}

variable sigmoid(const variable& a) {
  tensor out = a.value();
  out.apply([](double x) { return 1.0 / (1.0 + std::exp(-x)); });
  return graph_ops::make(std::move(out), {a}, [](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> y = self.value.flat();
    accumulate(parent(self, 0),
               [&](std::size_t i) { return g[i] * (y[i] * (1.0 - y[i])); });
  });
}

variable exp(const variable& a) {
  tensor out = a.value();
  out.apply([](double x) { return std::exp(x); });
  return graph_ops::make(std::move(out), {a}, [](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> y = self.value.flat();
    accumulate(parent(self, 0), [&](std::size_t i) { return g[i] * y[i]; });
  });
}

variable log(const variable& a) {
  tensor out = a.value();
  for (double x : out.flat()) VTM_EXPECTS(x > 0.0);
  out.apply([](double x) { return std::log(x); });
  return graph_ops::make(std::move(out), {a}, [](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> x = parent(self, 0).value.flat();
    const std::span<double> pg = parent(self, 0).grad.flat();
    for (std::size_t i = 0; i < pg.size(); ++i) pg[i] += g[i] / x[i];
  });
}

variable square(const variable& a) {
  tensor out = a.value();
  out.apply([](double x) { return x * x; });
  return graph_ops::make(std::move(out), {a}, [](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> x = parent(self, 0).value.flat();
    accumulate(parent(self, 0),
               [&](std::size_t i) { return g[i] * x[i] * 2.0; });
  });
}

variable clamp(const variable& a, double lo, double hi) {
  VTM_EXPECTS(lo <= hi);
  tensor out = a.value();
  out.apply([lo, hi](double x) { return x < lo ? lo : (x > hi ? hi : x); });
  return graph_ops::make(std::move(out), {a}, [lo, hi](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    const std::span<const double> g = self.grad.flat();
    const std::span<const double> x = parent(self, 0).value.flat();
    const std::span<double> pg = parent(self, 0).grad.flat();
    for (std::size_t i = 0; i < pg.size(); ++i)
      pg[i] += x[i] < lo || x[i] > hi ? 0.0 : g[i];
  });
}

variable minimum(const variable& a, const variable& b) {
  VTM_EXPECTS(a.dims() == b.dims());
  tensor out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i)
    out.flat()[i] = std::min(out.flat()[i], b.value().flat()[i]);
  return graph_ops::make(std::move(out), {a, b}, [](const node& self) {
    const tensor& av = parent(self, 0).value;
    const tensor& bv = parent(self, 1).value;
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      const bool a_smaller = av.flat()[i] <= bv.flat()[i];
      if (a_smaller && parent(self, 0).requires_grad)
        parent(self, 0).grad.flat()[i] += self.grad.flat()[i];
      if (!a_smaller && parent(self, 1).requires_grad)
        parent(self, 1).grad.flat()[i] += self.grad.flat()[i];
    }
  });
}

// ---- reductions -------------------------------------------------------------

variable sum(const variable& a) {
  return graph_ops::make(tensor::scalar(a.value().sum()), {a},
                         [](const node& self) {
                           if (!parent(self, 0).requires_grad) return;
                           const double g = self.grad.item();
                           for (double& x : parent(self, 0).grad.flat()) x += g;
                         });
}

variable mean(const variable& a) {
  const auto n = static_cast<double>(a.value().size());
  VTM_EXPECTS(n > 0);
  return graph_ops::make(tensor::scalar(a.value().sum() / n), {a},
                         [n](const node& self) {
                           if (!parent(self, 0).requires_grad) return;
                           const double g = self.grad.item() / n;
                           for (double& x : parent(self, 0).grad.flat()) x += g;
                         });
}

variable sum_cols(const variable& a) {
  tensor out({a.dims().rows, 1});
  for (std::size_t r = 0; r < a.dims().rows; ++r)
    for (std::size_t c = 0; c < a.dims().cols; ++c)
      out(r, 0) += a.value()(r, c);
  return graph_ops::make(std::move(out), {a}, [](const node& self) {
    if (!parent(self, 0).requires_grad) return;
    tensor& pg = parent(self, 0).grad;
    for (std::size_t r = 0; r < pg.rows(); ++r)
      for (std::size_t c = 0; c < pg.cols(); ++c) pg(r, c) += self.grad(r, 0);
  });
}

variable stop_gradient(const variable& a) {
  return variable::constant(a.value());
}

}  // namespace vtm::nn

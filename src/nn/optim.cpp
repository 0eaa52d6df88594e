#include "nn/optim.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace vtm::nn {

optimizer::optimizer(std::vector<variable> params)
    : params_(std::move(params)) {
  for (const auto& p : params_) {
    VTM_EXPECTS(p.valid());
    VTM_EXPECTS(p.requires_grad());
  }
}

void optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

sgd::sgd(std::vector<variable> params, double lr, double momentum)
    : optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  VTM_EXPECTS(lr > 0.0);
  VTM_EXPECTS(momentum >= 0.0 && momentum < 1.0);
  velocity_.reserve(params_.size());
  for (const auto& p : params_) velocity_.emplace_back(p.value().dims());
}

void sgd::step() {
  const double lr = lr_;
  const double momentum = momentum_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    double* __restrict value = params_[i].mutable_value().flat().data();
    double* __restrict grad = params_[i].mutable_grad().flat().data();
    double* __restrict velocity = velocity_[i].flat().data();
    const std::size_t n = velocity_[i].size();
    for (std::size_t j = 0; j < n; ++j) {
      velocity[j] = momentum * velocity[j] + grad[j];
      value[j] -= lr * velocity[j];
      grad[j] = 0.0;
    }
  }
}

adam::adam(std::vector<variable> params, double lr, double beta1, double beta2,
           double eps)
    : optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  VTM_EXPECTS(lr > 0.0);
  VTM_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  VTM_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  VTM_EXPECTS(eps > 0.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value().dims());
    v_.emplace_back(p.value().dims());
  }
}

void adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double lr = lr_;
  const double beta1 = beta1_;
  const double beta2 = beta2_;
  const double eps = eps_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    double* __restrict value = params_[i].mutable_value().flat().data();
    double* __restrict grad = params_[i].mutable_grad().flat().data();
    double* __restrict m = m_[i].flat().data();
    double* __restrict v = v_[i].flat().data();
    const std::size_t n = m_[i].size();
    // One pass per parameter: moments, update, and the gradient reset.
    for (std::size_t j = 0; j < n; ++j) {
      const double g = grad[j];
      m[j] = beta1 * m[j] + (1.0 - beta1) * g;
      v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
      const double m_hat = m[j] / bc1;
      const double v_hat = v[j] / bc2;
      value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      grad[j] = 0.0;
    }
  }
}

double clip_grad_norm(const std::vector<variable>& params, double max_norm) {
  VTM_EXPECTS(max_norm > 0.0);
  double sq = 0.0;
  for (const auto& p : params)
    for (double g : p.grad().flat()) sq += g * g;
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (variable p : params) {
      // Each gradient becomes 0 + round(g * scale), the scaled copy added
      // to a zeroed gradient: a zero product turns into +0.
      for (double& g : p.mutable_grad().flat()) {
        const double scaled = g * scale;
        g = scaled == 0.0 ? 0.0 : scaled;
      }
    }
  }
  return norm;
}

}  // namespace vtm::nn

#include "nn/optimizer.hpp"

#include <cmath>

namespace icoil::nn {

Sgd::Sgd(std::vector<Param*> params, double lr, double momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Param* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    Tensor& vel = velocity_[k];
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      vel[i] = static_cast<float>(momentum_ * vel[i] - lr_ * p.grad[i]);
      p.value[i] += vel[i];
    }
    ++p.version;
  }
}

Adam::Adam(std::vector<Param*> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const double g = p.grad[i];
      m[i] = static_cast<float>(beta1_ * m[i] + (1.0 - beta1_) * g);
      v[i] = static_cast<float>(beta2_ * v[i] + (1.0 - beta2_) * g * g);
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      p.value[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
    ++p.version;
  }
}

}  // namespace icoil::nn

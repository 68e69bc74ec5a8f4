#include "nn/optimizer.h"

#include <cmath>

#include "common/logging.h"

namespace gal {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

void Adam::Attach(std::vector<Matrix*> params) {
  params_ = std::move(params);
  m_.clear();
  v_.clear();
  for (Matrix* p : params_) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
  }
  t_ = 0;
}

void Adam::Step(const std::vector<Matrix>& grads) {
  GAL_CHECK(grads.size() == params_.size());
  ++t_;
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    std::vector<float>& p = params_[i]->data();
    std::vector<float>& m = m_[i].data();
    std::vector<float>& v = v_[i].data();
    const std::vector<float>& g = grads[i].data();
    GAL_CHECK(g.size() == p.size());
    for (size_t j = 0; j < p.size(); ++j) {
      m[j] = kBeta1 * m[j] + (1.0f - kBeta1) * g[j];
      v[j] = kBeta2 * v[j] + (1.0f - kBeta2) * g[j] * g[j];
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      p[j] -= lr_ * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

}  // namespace gal

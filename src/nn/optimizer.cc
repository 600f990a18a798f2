#include "nn/optimizer.h"

#include <cmath>

namespace apots::nn {

Adam::Adam(float learning_rate, float beta1, float beta2, float epsilon)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {}

void Adam::StepAndZero(const std::vector<Parameter*>& params) {
  Step(params);
  ZeroAllGrads(params);
}

void Adam::Step(const std::vector<Parameter*>& params) {
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (Parameter* p : params) {
    auto [it, inserted] = moments_.try_emplace(
        p, Moments{Tensor(p->value.shape()), Tensor(p->value.shape())});
    Moments& mom = it->second;
    float* m = mom.m.data();
    float* v = mom.v.data();
    float* w = p->value.data();
    const float* g = p->grad.data();
    for (size_t i = 0; i < p->value.size(); ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      w[i] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

}  // namespace apots::nn

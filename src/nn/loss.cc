#include "nn/loss.h"

#include <cmath>

#include "nn/activations.h"
#include "tensor/tensor_ops.h"

namespace apots::nn {

LossResult MseLoss(const Tensor& prediction, const Tensor& target) {
  APOTS_CHECK(prediction.SameShape(target));
  APOTS_CHECK_GT(prediction.size(), 0u);
  LossResult result;
  result.grad = Tensor(prediction.shape());
  const float* pp = prediction.data();
  const float* pt = target.data();
  float* pg = result.grad.data();
  const float inv_n = 1.0f / static_cast<float>(prediction.size());
  double acc = 0.0;
  for (size_t i = 0; i < prediction.size(); ++i) {
    const float diff = pp[i] - pt[i];
    acc += static_cast<double>(diff) * diff;
    pg[i] = 2.0f * diff * inv_n;
  }
  result.value = static_cast<float>(acc * inv_n);
  return result;
}

LossResult BceWithLogitsLoss(const Tensor& logits, const Tensor& target) {
  APOTS_CHECK(logits.SameShape(target));
  APOTS_CHECK_GT(logits.size(), 0u);
  LossResult result;
  result.grad = Tensor(logits.shape());
  const float* pz = logits.data();
  const float* py = target.data();
  float* pg = result.grad.data();
  const float inv_n = 1.0f / static_cast<float>(logits.size());
  double acc = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    const float z = pz[i];
    const float y = py[i];
    // Stable: max(z,0) - z*y + log(1+exp(-|z|)), where
    // log(1+exp(-|z|)) = -log(1 - sigmoid(-|z|)).
    acc += std::max(z, 0.0f) - z * y -
           std::log1p(-SigmoidScalar(-std::fabs(z)));
    pg[i] = (SigmoidScalar(z) - y) * inv_n;
  }
  result.value = static_cast<float>(acc * inv_n);
  return result;
}

LossResult AdversarialGeneratorLoss(const Tensor& fake_logits) {
  Tensor ones = Tensor::Full(fake_logits.shape(), 1.0f);
  return BceWithLogitsLoss(fake_logits, ones);
}

}  // namespace apots::nn

#include "nn/dropout.h"

#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::nn {

Dropout::Dropout(float rate, apots::Rng* rng) : rate_(rate), rng_(rng) {
  APOTS_CHECK_GE(rate, 0.0f);
  APOTS_CHECK_LT(rate, 1.0f);
  APOTS_CHECK(rng != nullptr);
}

Tensor Dropout::Forward(const Tensor& input, bool training) {
  if (!training || rate_ == 0.0f) {
    mask_valid_ = false;
    return input;
  }
  const float keep = 1.0f - rate_;
  mask_ = Tensor(input.shape());
  float* pm = mask_.data();
  for (size_t i = 0; i < mask_.size(); ++i) {
    pm[i] = rng_->Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  mask_valid_ = true;
  return apots::tensor::Mul(input, mask_);
}

const Tensor* Dropout::Forward(const Tensor& input, bool training,
                               tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  // Inference dropout is the identity: pass the input through uncopied.
  return &input;
}

Tensor Dropout::Backward(const Tensor& grad_output) {
  if (!mask_valid_) return grad_output;
  APOTS_CHECK(grad_output.SameShape(mask_));
  return apots::tensor::Mul(grad_output, mask_);
}

std::string Dropout::Name() const {
  return apots::StrFormat("Dropout(%.2f)", static_cast<double>(rate_));
}

}  // namespace apots::nn

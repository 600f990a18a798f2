#include "nn/activations.h"

#include "tensor/simd_kernels.h"
#include "util/string_util.h"

namespace apots::nn {

float SigmoidScalar(float x) { return tensor::simd::SigmoidLane(x); }

Tensor Relu::Forward(const Tensor& input, bool training) {
  cached_input_ = input;
  Tensor out = input;
  float* p = out.data();
  for (size_t i = 0; i < out.size(); ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  return out;
}

const Tensor* Relu::Forward(const Tensor& input, bool training,
                            tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  Tensor* out = ws->Acquire(input.shape());
  const float* px = input.data();
  float* p = out->data();
  for (size_t i = 0; i < out->size(); ++i) p[i] = px[i] > 0.0f ? px[i] : 0.0f;
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  APOTS_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = grad_output;
  float* pg = grad.data();
  const float* px = cached_input_.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    if (px[i] <= 0.0f) pg[i] = 0.0f;
  }
  return grad;
}

Tensor LeakyRelu::Forward(const Tensor& input, bool training) {
  cached_input_ = input;
  Tensor out = input;
  float* p = out.data();
  for (size_t i = 0; i < out.size(); ++i) {
    if (p[i] < 0.0f) p[i] *= slope_;
  }
  return out;
}

Tensor LeakyRelu::Backward(const Tensor& grad_output) {
  APOTS_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = grad_output;
  float* pg = grad.data();
  const float* px = cached_input_.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    if (px[i] < 0.0f) pg[i] *= slope_;
  }
  return grad;
}

std::string LeakyRelu::Name() const {
  return apots::StrFormat("LeakyRelu(%.2f)", static_cast<double>(slope_));
}

}  // namespace apots::nn

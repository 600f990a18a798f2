#include "nn/activations.h"

#include "tensor/simd_kernels.h"
#include "util/string_util.h"

namespace apots::nn {

namespace {

/// dst[i] = fn(x[i], v[i]) over n floats, where fn is a compare and a
/// select. Eight at a time, each block loaded before it is stored, so the
/// compiler turns the select into a compare and a mask or blend (ConvTrunk's
/// bias+ReLU idiom); the select keeps the scalar branch's bits. dst may be
/// x or v.
template <typename Fn>
void MaskPass(const float* x, const float* v, float* dst, size_t n, Fn fn) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    float out[8];
    for (size_t c = 0; c < 8; ++c) out[c] = fn(x[i + c], v[i + c]);
    for (size_t c = 0; c < 8; ++c) dst[i + c] = out[c];
  }
  for (; i < n; ++i) dst[i] = fn(x[i], v[i]);
}

/// ReLU: x > 0 is false for NaN and -0, so both map to +0.
float ReluForward(float x, float) { return x > 0.0f ? x : 0.0f; }
/// x <= 0 is false for NaN, so a NaN input passes its gradient.
float ReluGrad(float x, float g) { return x <= 0.0f ? 0.0f : g; }

}  // namespace

float SigmoidScalar(float x) { return tensor::simd::SigmoidLane(x); }

const Tensor* Relu::Run(const Tensor& input, tensor::Workspace* ws,
                        InputRecord* record) const {
  Tensor* out = ws->Acquire(input.shape());
  MaskPass(input.data(), input.data(), out->data(), out->size(), ReluForward);
  if (record != nullptr) {
    record->stamp.Set(ws);
    record->input = &input;
  }
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  record_.stamp.Check(Name());
  const Tensor& input = *record_.input;
  APOTS_CHECK(grad_output.SameShape(input));
  Tensor grad = grad_output;
  MaskPass(input.data(), grad.data(), grad.data(), grad.size(), ReluGrad);
  return grad;
}

// x < 0 is false for NaN and -0, so LeakyRelu leaves both unscaled.
const Tensor* LeakyRelu::Run(const Tensor& input, tensor::Workspace* ws,
                             InputRecord* record) const {
  Tensor* out = ws->Acquire(input.shape());
  const float slope = slope_;
  MaskPass(input.data(), input.data(), out->data(), out->size(),
           [slope](float x, float v) { return x < 0.0f ? v * slope : v; });
  if (record != nullptr) {
    record->stamp.Set(ws);
    record->input = &input;
  }
  return out;
}

Tensor LeakyRelu::Backward(const Tensor& grad_output) {
  record_.stamp.Check(Name());
  const Tensor& input = *record_.input;
  APOTS_CHECK(grad_output.SameShape(input));
  Tensor grad = grad_output;
  const float slope = slope_;
  MaskPass(input.data(), grad.data(), grad.data(), grad.size(),
           [slope](float x, float g) { return x < 0.0f ? g * slope : g; });
  return grad;
}

std::string LeakyRelu::Name() const {
  return apots::StrFormat("LeakyRelu(%.2f)", static_cast<double>(slope_));
}

}  // namespace apots::nn

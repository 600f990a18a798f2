#include "nn/flatten.h"

#include <algorithm>

namespace apots::nn {

Tensor Flatten::Forward(const Tensor& input, bool training) {
  APOTS_CHECK_GE(input.rank(), 2u);
  cached_shape_ = input.shape();
  const size_t batch = input.dim(0);
  return input.Reshape({batch, input.size() / batch});
}

const Tensor* Flatten::Forward(const Tensor& input, bool training,
                               tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_GE(input.rank(), 2u);
  const size_t batch = input.dim(0);
  Tensor* out = ws->Acquire({batch, input.size() / batch});
  std::copy(input.data(), input.data() + input.size(), out->data());
  return out;
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  return grad_output.Reshape(cached_shape_);
}

}  // namespace apots::nn

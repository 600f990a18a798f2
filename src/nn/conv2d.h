#ifndef APOTS_NN_CONV2D_H_
#define APOTS_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/initializer.h"
#include "nn/module.h"
#include "util/rng.h"

namespace apots::nn {

/// 2-D convolution, stride 1, symmetric zero padding, implemented via
/// im2col + matmul. Input [batch, in_channels, height, width], output
/// [batch, out_channels, out_h, out_w] with out_h = height + 2*pad - kh + 1.
/// With pad = kh/2 (odd kernels) the spatial size is preserved ("same"),
/// which is how the APOTS CNN keeps the (2m+1) x alpha speed matrix shape
/// through its 3x3 / 1x1 / 3x3 stack.
class Conv2d : public Layer {
 public:
  Conv2d(size_t in_channels, size_t out_channels, size_t kh, size_t kw,
         size_t pad, apots::Rng* rng, Init init = Init::kHeNormal);

  Tensor Forward(const Tensor& input, bool training) override;
  const Tensor* Forward(const Tensor& input, bool training,
                        tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  size_t out_channels() const { return out_channels_; }

 private:
  size_t in_channels_;
  size_t out_channels_;
  size_t kh_;
  size_t kw_;
  size_t pad_;
  // Weight is stored as [out_channels, in_channels*kh*kw] so forward is a
  // single matmul against the im2col matrix.
  Parameter weight_;
  Parameter bias_;
  // Per-sample im2col matrices cached for backward.
  std::vector<Tensor> cached_columns_;
  size_t cached_height_ = 0;
  size_t cached_width_ = 0;
};

}  // namespace apots::nn

#endif  // APOTS_NN_CONV2D_H_

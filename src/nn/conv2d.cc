#include "nn/conv2d.h"

#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::nn {

namespace ops = apots::tensor;

Conv2d::Conv2d(size_t in_channels, size_t out_channels, size_t kh, size_t kw,
               size_t pad, apots::Rng* rng, Init init)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kh_(kh),
      kw_(kw),
      pad_(pad),
      weight_("conv.weight", Tensor({out_channels, in_channels * kh * kw})),
      bias_("conv.bias", Tensor({out_channels})) {
  APOTS_CHECK_GT(kh, 0u);
  APOTS_CHECK_GT(kw, 0u);
  Initialize(&weight_.value, init, in_channels * kh * kw,
             out_channels * kh * kw, rng);
}

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  APOTS_CHECK_EQ(input.rank(), 4u);
  APOTS_CHECK_EQ(input.dim(1), in_channels_);
  const size_t batch = input.dim(0);
  const size_t height = input.dim(2);
  const size_t width = input.dim(3);
  const size_t out_h = height + 2 * pad_ - kh_ + 1;
  const size_t out_w = width + 2 * pad_ - kw_ + 1;
  cached_height_ = height;
  cached_width_ = width;
  cached_columns_.clear();
  cached_columns_.reserve(batch);

  Tensor output({batch, out_channels_, out_h, out_w});
  const size_t sample_in_size = in_channels_ * height * width;
  const size_t sample_out_size = out_channels_ * out_h * out_w;
  for (size_t n = 0; n < batch; ++n) {
    // View sample n as a [C,H,W] tensor (copy; inputs are small here).
    Tensor sample({in_channels_, height, width});
    std::copy(input.data() + n * sample_in_size,
              input.data() + (n + 1) * sample_in_size, sample.data());
    Tensor columns = ops::Im2Col(sample, kh_, kw_, pad_);
    Tensor out_mat = ops::Matmul(weight_.value, columns);  // [OC, oh*ow]
    // Add bias per output channel.
    for (size_t oc = 0; oc < out_channels_; ++oc) {
      float* row = out_mat.data() + oc * out_h * out_w;
      const float b = bias_.value[oc];
      for (size_t i = 0; i < out_h * out_w; ++i) row[i] += b;
    }
    std::copy(out_mat.data(), out_mat.data() + sample_out_size,
              output.data() + n * sample_out_size);
    cached_columns_.push_back(std::move(columns));
  }
  return output;
}

const Tensor* Conv2d::Forward(const Tensor& input, bool training,
                              tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_EQ(input.rank(), 4u);
  APOTS_CHECK_EQ(input.dim(1), in_channels_);
  const size_t batch = input.dim(0);
  const size_t height = input.dim(2);
  const size_t width = input.dim(3);
  const size_t out_h = height + 2 * pad_ - kh_ + 1;
  const size_t out_w = width + 2 * pad_ - kw_ + 1;

  Tensor* output = ws->Acquire({batch, out_channels_, out_h, out_w});
  // Per-sample scratch reused across the batch; no column caching (that is
  // backward-only state) and no member writes, so inference is reentrant.
  Tensor* sample = ws->Acquire({in_channels_, height, width});
  Tensor* columns = ws->Acquire({in_channels_ * kh_ * kw_, out_h * out_w});
  Tensor* out_mat = ws->Acquire({out_channels_, out_h * out_w});
  const size_t sample_in_size = in_channels_ * height * width;
  const size_t sample_out_size = out_channels_ * out_h * out_w;
  for (size_t n = 0; n < batch; ++n) {
    std::copy(input.data() + n * sample_in_size,
              input.data() + (n + 1) * sample_in_size, sample->data());
    ops::Im2ColInto(*sample, kh_, kw_, pad_, columns);
    ops::MatmulInto(weight_.value, *columns, out_mat);
    for (size_t oc = 0; oc < out_channels_; ++oc) {
      float* row = out_mat->data() + oc * out_h * out_w;
      const float b = bias_.value[oc];
      for (size_t i = 0; i < out_h * out_w; ++i) row[i] += b;
    }
    std::copy(out_mat->data(), out_mat->data() + sample_out_size,
              output->data() + n * sample_out_size);
  }
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  APOTS_CHECK_EQ(grad_output.rank(), 4u);
  const size_t batch = grad_output.dim(0);
  APOTS_CHECK_EQ(batch, cached_columns_.size());
  APOTS_CHECK_EQ(grad_output.dim(1), out_channels_);
  const size_t out_h = grad_output.dim(2);
  const size_t out_w = grad_output.dim(3);
  const size_t sample_out_size = out_channels_ * out_h * out_w;
  const size_t sample_in_size = in_channels_ * cached_height_ * cached_width_;

  Tensor grad_input({batch, in_channels_, cached_height_, cached_width_});
  for (size_t n = 0; n < batch; ++n) {
    Tensor grad_mat({out_channels_, out_h * out_w});
    std::copy(grad_output.data() + n * sample_out_size,
              grad_output.data() + (n + 1) * sample_out_size,
              grad_mat.data());
    // dW += dY * columns^T ; db += row sums of dY.
    ops::AddInPlace(&weight_.grad,
                    ops::MatmulTransposeB(grad_mat, cached_columns_[n]));
    for (size_t oc = 0; oc < out_channels_; ++oc) {
      const float* row = grad_mat.data() + oc * out_h * out_w;
      float acc = 0.0f;
      for (size_t i = 0; i < out_h * out_w; ++i) acc += row[i];
      bias_.grad[oc] += acc;
    }
    // dColumns = W^T dY, then scatter back to image space.
    Tensor grad_columns = ops::MatmulTransposeA(weight_.value, grad_mat);
    Tensor grad_sample = ops::Col2Im(grad_columns, in_channels_,
                                     cached_height_, cached_width_, kh_, kw_,
                                     pad_);
    std::copy(grad_sample.data(), grad_sample.data() + sample_in_size,
              grad_input.data() + n * sample_in_size);
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::Parameters() { return {&weight_, &bias_}; }

std::string Conv2d::Name() const {
  return apots::StrFormat("Conv2d(%zu -> %zu, %zux%zu, pad %zu)",
                          in_channels_, out_channels_, kh_, kw_, pad_);
}

}  // namespace apots::nn

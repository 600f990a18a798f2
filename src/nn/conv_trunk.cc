#include "nn/conv_trunk.h"

#include <algorithm>

#include "nn/initializer.h"
#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::nn {

namespace ops = apots::tensor;

namespace {

/// The inference forward runs its samples in blocks whose widest layer
/// buffer (columns or activations) holds about this many floats (256 KB),
/// so the arena holds one block's buffers instead of the batch's. Time
/// does not depend on it: on one thread, blocks of 2 to 64 samples ran a
/// 64-row forward in the same time within noise. Blocks change no bits:
/// a product's row count, not its width, picks the kernel.
constexpr size_t kBlockFloats = size_t{1} << 16;

/// row[i] = max(row[i] + bias, 0) over n floats. Eight at a time, loaded
/// before they are stored, so the compiler vectorizes the blocks: the
/// ternary becomes a compare and a mask, which maps a sum <= 0 (or NaN) to
/// +0 exactly as the branch does.
void BiasReluInPlace(float* row, float bias, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    float v[8];
    for (size_t c = 0; c < 8; ++c) v[c] = row[i + c] + bias;
    for (size_t c = 0; c < 8; ++c) row[i + c] = v[c] > 0.0f ? v[c] : 0.0f;
  }
  for (; i < n; ++i) {
    const float v = row[i] + bias;
    row[i] = v > 0.0f ? v : 0.0f;
  }
}

/// ReLU backward: zeroes grad[i] where the activation y[i] is 0. Eight at
/// a time, as above.
void ReluGradInPlace(const float* y, float* grad, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    float g[8];
    for (size_t c = 0; c < 8; ++c) g[c] = y[i + c] > 0.0f ? grad[i + c] : 0.0f;
    for (size_t c = 0; c < 8; ++c) grad[i + c] = g[c];
  }
  for (; i < n; ++i) grad[i] = y[i] > 0.0f ? grad[i] : 0.0f;
}

}  // namespace

ConvTrunk::ConvTrunk(size_t in_channels, size_t height, size_t width,
                     const std::vector<size_t>& channels,
                     const std::vector<size_t>& kernels, Layout layout,
                     apots::Rng* rng)
    : in_channels_(in_channels),
      height_(height),
      width_(width),
      layout_(layout) {
  APOTS_CHECK_GT(in_channels, 0u);
  APOTS_CHECK_GT(height * width, 0u);
  APOTS_CHECK(!channels.empty());
  APOTS_CHECK_EQ(channels.size(), kernels.size());
  layers_.reserve(channels.size());
  size_t in = in_channels;
  size_t widest = 1;
  for (size_t i = 0; i < channels.size(); ++i) {
    const size_t out = channels[i];
    const size_t k = kernels[i];
    APOTS_CHECK_EQ(k % 2, 1u) << "\"same\" padding needs an odd kernel";
    layers_.push_back({in, out, k,
                       Parameter("conv.weight", Tensor({out, in * k * k})),
                       Parameter("conv.bias", Tensor({out}))});
    Initialize(&layers_.back().weight.value, Init::kHeNormal, in * k * k,
               out * k * k, rng);
    widest = std::max({widest, in * k * k, out});
    in = out;
  }
  block_samples_ =
      std::max<size_t>(1, kBlockFloats / (widest * height * width));
  record_.columns.resize(layers_.size());
  record_.acts.resize(layers_.size());
}

size_t ConvTrunk::CheckInput(const Tensor& input) const {
  if (input.rank() == 3) {
    APOTS_CHECK_EQ(in_channels_, 1u);
  } else {
    APOTS_CHECK_EQ(input.rank(), 4u);
    APOTS_CHECK_EQ(input.dim(1), in_channels_);
  }
  APOTS_CHECK_EQ(input.dim(input.rank() - 2), height_);
  APOTS_CHECK_EQ(input.dim(input.rank() - 1), width_);
  return input.dim(0);
}

std::vector<size_t> ConvTrunk::OutputShape(size_t batch) const {
  const size_t c = out_channels();
  if (layout_ == Layout::kFlat) return {batch, c * height_ * width_};
  return {batch, width_, c * height_};
}

void ConvTrunk::GatherInput(const Tensor& input, size_t n0, Tensor* x) const {
  const size_t plane = height_ * width_;
  const size_t count = x->cols() / plane;
  for (size_t c = 0; c < in_channels_; ++c) {
    for (size_t n = 0; n < count; ++n) {
      const float* src = input.data() + ((n0 + n) * in_channels_ + c) * plane;
      std::copy(src, src + plane, x->data() + (c * count + n) * plane);
    }
  }
}

void ConvTrunk::RunLayer(size_t l, const Tensor& x, Tensor* columns,
                         Tensor* act, size_t n0, Tensor* out) const {
  const Conv& conv = layers_[l];
  const Tensor* product_rhs = &x;  // a 1x1 kernel's columns are its input
  if (conv.kernel > 1) {
    ops::Im2ColInto(x, height_, width_, conv.kernel, columns);
    product_rhs = columns;
  }
  ops::MatmulInto(conv.weight.value, *product_rhs, act);
  const size_t cols = act->cols();
  for (size_t oc = 0; oc < conv.out_channels; ++oc) {
    BiasReluInPlace(act->data() + oc * cols, conv.bias.value[oc], cols);
  }
  if (l + 1 < layers_.size()) return;
  // The last layer's activations, into the trunk's layout.
  const size_t plane = height_ * width_;
  const size_t channels = conv.out_channels;
  const size_t features = channels * height_;
  for (size_t n = 0; n < cols / plane; ++n) {
    for (size_t oc = 0; oc < channels; ++oc) {
      const float* src = act->data() + oc * cols + n * plane;
      if (layout_ == Layout::kFlat) {
        std::copy(src, src + plane,
                  out->data() + ((n0 + n) * channels + oc) * plane);
        continue;
      }
      float* dst = out->data() + (n0 + n) * width_ * features + oc * height_;
      for (size_t r = 0; r < height_; ++r) {
        for (size_t t = 0; t < width_; ++t) {
          dst[t * features + r] = src[r * width_ + t];
        }
      }
    }
  }
}

const Tensor* ConvTrunk::Run(const Tensor& input, tensor::Workspace* ws,
                             Record* record) const {
  const size_t batch = CheckInput(input);
  Tensor* out = ws->Acquire(OutputShape(batch));
  const size_t plane = height_ * width_;
  // A recorded forward is one block of the whole batch: Backward's
  // weight-gradient products read every sample's columns.
  const size_t blocks =
      record != nullptr ? 1 : (batch + block_samples_ - 1) / block_samples_;
  const size_t mark = ws->slots_in_use();
  for (size_t b = 0, n0 = 0; b < blocks; ++b) {
    // Blocks differ by at most one sample, so a batch's blocks reuse the
    // same slots at (almost) the same size.
    const size_t count = batch / blocks + (b < batch % blocks ? 1 : 0);
    ws->Rewind(mark);
    Tensor* x = ws->Acquire({in_channels_, count * plane});
    GatherInput(input, n0, x);
    if (record != nullptr) record->x = x;
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Conv& conv = layers_[l];
      Tensor* columns =
          conv.kernel > 1
              ? ws->Acquire({conv.in_channels * conv.kernel * conv.kernel,
                             count * plane})
              : nullptr;
      Tensor* act = ws->Acquire({conv.out_channels, count * plane});
      RunLayer(l, *x, columns, act, n0, out);
      if (record != nullptr) {
        record->columns[l] = columns;
        record->acts[l] = act;
      }
      x = act;
    }
    n0 += count;
  }
  if (record != nullptr) {
    record->stamp.Set(ws);
    record->input_shape = input.shape();
  }
  return out;
}

Tensor ConvTrunk::Backward(const Tensor& grad_output) {
  record_.stamp.Check(Name());
  const size_t batch = record_.input_shape[0];
  APOTS_CHECK(grad_output.shape() == OutputShape(batch));
  const size_t plane = height_ * width_;
  const size_t cols = batch * plane;

  // The output gradient in channel-major order.
  const size_t channels = out_channels();
  const size_t features = channels * height_;
  Tensor grad({channels, cols});
  for (size_t n = 0; n < batch; ++n) {
    for (size_t oc = 0; oc < channels; ++oc) {
      float* dst = grad.data() + oc * cols + n * plane;
      for (size_t p = 0; p < plane; ++p) {
        dst[p] = grad_output[layout_ == Layout::kFlat
                                 ? (n * channels + oc) * plane + p
                                 : (n * width_ + p % width_) * features +
                                       oc * height_ + p / width_];
      }
    }
  }

  for (size_t l = layers_.size(); l-- > 0;) {
    Conv& conv = layers_[l];
    // Through the layer's ReLU. The record holds its activation, which is
    // positive exactly where its pre-activation is (NaN aside).
    ReluGradInPlace(record_.acts[l]->data(), grad.data(), grad.size());
    const Tensor& x = l == 0 ? *record_.x : *record_.acts[l - 1];
    const Tensor& columns = conv.kernel > 1 ? *record_.columns[l] : x;
    // Weight and bias gradients: each sample's sum, added in sample order.
    ops::AddSampleProductsTransposeB(grad, columns, batch, &conv.weight.grad);
    for (size_t oc = 0; oc < conv.out_channels; ++oc) {
      for (size_t n = 0; n < batch; ++n) {
        const float* row = grad.data() + oc * cols + n * plane;
        float acc = 0.0f;
        for (size_t p = 0; p < plane; ++p) acc += row[p];
        conv.bias.grad[oc] += acc;
      }
    }
    // Input gradient: one W^T product over the batch, scattered back to
    // image space by col2im (the identity for a 1x1 kernel).
    Tensor grad_x = ops::MatmulTransposeA(conv.weight.value, grad);
    if (conv.kernel > 1) {
      grad_x = ops::Col2Im(grad_x, conv.in_channels, height_, width_,
                           conv.kernel);
    }
    grad = std::move(grad_x);
  }

  // Channel-major [in_channels, batch*plane] back to the input's shape.
  Tensor grad_input(record_.input_shape);
  for (size_t c = 0; c < in_channels_; ++c) {
    for (size_t n = 0; n < batch; ++n) {
      const float* src = grad.data() + (c * batch + n) * plane;
      std::copy(src, src + plane,
                grad_input.data() + (n * in_channels_ + c) * plane);
    }
  }
  return grad_input;
}

std::vector<Parameter*> ConvTrunk::Parameters() {
  std::vector<Parameter*> params;
  for (Conv& conv : layers_) {
    params.push_back(&conv.weight);
    params.push_back(&conv.bias);
  }
  return params;
}

std::string ConvTrunk::Name() const {
  std::string out = apots::StrFormat("ConvTrunk(%zu", in_channels_);
  for (const Conv& conv : layers_) {
    out += apots::StrFormat(" -> %zu %zux%zu", conv.out_channels, conv.kernel,
                            conv.kernel);
  }
  return out + ")";
}

}  // namespace apots::nn

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
/// a time, as above. The select takes grad[i] as a value, loaded whatever
/// y[i] is: a load under the condition keeps a compare and a branch per
/// element, which mispredicts on activations of either sign.
float ReluGrad(float y, float grad) { return y > 0.0f ? grad : 0.0f; }

void ReluGradInPlace(const float* y, float* grad, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    float g[8];
    for (size_t c = 0; c < 8; ++c) g[c] = ReluGrad(y[i + c], grad[i + c]);
    for (size_t c = 0; c < 8; ++c) grad[i + c] = g[c];
  }
  for (; i < n; ++i) grad[i] = ReluGrad(y[i], grad[i]);
}

/// Adds each of `samples` sums into *bias, in sample order, where sample
/// s's sum is the ascending chain from zero over row[s*plane, (s+1)*plane).
/// The chains are independent, so eight run interleaved.
void AddSampleSums(const float* row, size_t samples, size_t plane,
                   float* bias) {
  constexpr size_t kChains = 8;
  size_t s = 0;
  for (; s + kChains <= samples; s += kChains) {
    float acc[kChains] = {};
    for (size_t p = 0; p < plane; ++p) {
      for (size_t c = 0; c < kChains; ++c) acc[c] += row[(s + c) * plane + p];
    }
    for (size_t c = 0; c < kChains; ++c) *bias += acc[c];
  }
  for (; s < samples; ++s) {
    float acc = 0.0f;
    for (size_t p = 0; p < plane; ++p) acc += row[s * plane + p];
    *bias += acc;
  }
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
  tensor::Workspace* ws = record_.stamp.Check(Name());
  const size_t batch = record_.input_shape[0];
  APOTS_CHECK(grad_output.shape() == OutputShape(batch));
  const size_t plane = height_ * width_;
  const size_t cols = batch * plane;
  const size_t channels = out_channels();
  const size_t features = channels * height_;

  // Backward runs the inference forward's blocks of samples through every
  // layer in turn, so its scratch holds one block, not the batch: the
  // block's gradient at a layer's output, its W^T product, and one
  // sample's packed columns. The slots come after the record's and are
  // rewound on return. Each layer still adds its samples' weight and bias
  // gradients in sample order, and blocks change no product's row count.
  const size_t mark = ws->slots_in_use();
  Tensor* grad = ws->Acquire({0});
  Tensor* grad_x = ws->Acquire({0});
  Tensor* columns_panels = ws->Acquire({0});
  Tensor grad_input(record_.input_shape);
  const size_t blocks = (batch + block_samples_ - 1) / block_samples_;
  for (size_t b = 0, n0 = 0; b < blocks; ++b) {
    const size_t count = batch / blocks + (b < batch % blocks ? 1 : 0);
    const size_t block_cols = count * plane;
    // The block's output gradient, channel-major.
    grad->ResetShape({channels, block_cols});
    for (size_t n = 0; n < count; ++n) {
      for (size_t oc = 0; oc < channels; ++oc) {
        float* dst = grad->data() + oc * block_cols + n * plane;
        for (size_t p = 0; p < plane; ++p) {
          dst[p] = grad_output[layout_ == Layout::kFlat
                                   ? ((n0 + n) * channels + oc) * plane + p
                                   : ((n0 + n) * width_ + p % width_) *
                                             features +
                                         oc * height_ + p / width_];
        }
      }
    }
    for (size_t l = layers_.size(); l-- > 0;) {
      Conv& conv = layers_[l];
      const size_t at = n0 * plane;  // the block's first column
      // Through the layer's ReLU. The record holds its activation, which
      // is positive exactly where its pre-activation is (NaN aside).
      for (size_t oc = 0; oc < conv.out_channels; ++oc) {
        ReluGradInPlace(record_.acts[l]->data() + oc * cols + at,
                        grad->data() + oc * block_cols, block_cols);
      }
      const Tensor& x = l == 0 ? *record_.x : *record_.acts[l - 1];
      const Tensor& columns = conv.kernel > 1 ? *record_.columns[l] : x;
      // Weight and bias gradients: each sample's product and row sums,
      // added in sample order. A sample's blocks are read in place.
      const size_t taps = columns.rows();
      for (size_t n = 0; n < count; ++n) {
        ops::AddProduct(
            {grad->data() + n * plane, conv.out_channels, plane, block_cols,
             1},
            ops::PrepareSumRhs(
                {columns.data() + at + n * plane, plane, taps, 1, cols},
                columns_panels),
            &conv.weight.grad);
      }
      for (size_t oc = 0; oc < conv.out_channels; ++oc) {
        AddSampleSums(grad->data() + oc * block_cols, count, plane,
                      &conv.bias.grad[oc]);
      }
      // Input gradient: one W^T product over the block, scattered back to
      // image space by col2im into `grad`, which is read no more (a 1x1
      // kernel's product is the image).
      grad_x->ResetShape({taps, block_cols});
      ops::MatmulTransposeAInto(conv.weight.value, *grad, grad_x);
      if (conv.kernel > 1) {
        grad->ResetShape({conv.in_channels, block_cols});
        ops::Col2ImInto(*grad_x, height_, width_, conv.kernel, grad);
      } else {
        std::swap(grad, grad_x);
      }
    }
    // Channel-major [in_channels, count*plane] back to the input's shape.
    for (size_t c = 0; c < in_channels_; ++c) {
      for (size_t n = 0; n < count; ++n) {
        const float* src = grad->data() + (c * count + n) * plane;
        std::copy(src, src + plane,
                  grad_input.data() + ((n0 + n) * in_channels_ + c) * plane);
      }
    }
    n0 += count;
  }
  ws->Rewind(mark);
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

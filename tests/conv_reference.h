// The per-sample convolution that nn::ConvTrunk replaced, written as test
// code: the bitwise oracle of the trunk's batched, channel-major layers.
//
// Each sample runs through the layers on its own, NCHW: im2col of the
// sample (tensor::reference::Im2Col), the [out, in*k*k] x [in*k*k, H*W]
// product, the bias, then the ReLU. Backward runs each sample through the
// layers in reverse: the weight gradient is the sample's own product,
// added into the layer's gradient sample after sample, and so is the
// bias gradient's per-sample row sum; the input gradient is W^T times the
// output gradient, scattered back by a per-sample col2im and masked by
// the previous layer's pre-activation. The products are the reference
// kernels, which the dispatched kernels match bit for bit.

#ifndef APOTS_TESTS_CONV_REFERENCE_H_
#define APOTS_TESTS_CONV_REFERENCE_H_

#include <vector>

#include "nn/conv_trunk.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace apots::conv_reference {

using apots::nn::ConvTrunk;
using apots::tensor::Tensor;

struct ConvLayer {
  const Tensor* weight;  // [out, in*k*k]
  const Tensor* bias;    // [out]
  size_t kernel;
};

/// Everything a trunk's forward and backward produce for one batch.
struct TrunkResult {
  Tensor output;                   // in the trunk's layout
  Tensor grad_input;               // [batch, in_channels, height, width]
  std::vector<Tensor> grad_weight;  // per layer, accumulated from zero
  std::vector<Tensor> grad_bias;
  std::vector<Tensor> pre;  // per layer: [batch, out, height*width]
};

/// Gradient of reference::Im2Col for one [channels, height, width] sample.
inline Tensor Col2Im(const Tensor& columns, size_t channels, size_t height,
                     size_t width, size_t k, size_t pad) {
  const size_t out_h = height + 2 * pad - k + 1;
  const size_t out_w = width + 2 * pad - k + 1;
  Tensor image({channels, height, width});
  for (size_t c = 0; c < channels; ++c) {
    for (size_t ki = 0; ki < k; ++ki) {
      for (size_t kj = 0; kj < k; ++kj) {
        const float* src = columns.data() + ((c * k + ki) * k + kj) *
                                                out_h * out_w;
        for (size_t oi = 0; oi < out_h; ++oi) {
          const long i = static_cast<long>(oi + ki) - static_cast<long>(pad);
          if (i < 0 || i >= static_cast<long>(height)) continue;
          for (size_t oj = 0; oj < out_w; ++oj) {
            const long j =
                static_cast<long>(oj + kj) - static_cast<long>(pad);
            if (j < 0 || j >= static_cast<long>(width)) continue;
            image.At3(c, static_cast<size_t>(i), static_cast<size_t>(j)) +=
                src[oi * out_w + oj];
          }
        }
      }
    }
  }
  return image;
}

/// Index of (sample n, channel c, pixel p) in a trunk output of `layout`.
inline size_t OutputIndex(ConvTrunk::Layout layout, size_t n, size_t c,
                          size_t p, size_t channels, size_t height,
                          size_t width) {
  if (layout == ConvTrunk::Layout::kFlat) {
    return (n * channels + c) * height * width + p;
  }
  return (n * width + p % width) * channels * height + c * height + p / width;
}

/// Runs the trunk `layers` on `input` ([batch, in_channels, height, width]
/// or [batch, height, width]) one sample at a time, then backpropagates
/// `grad_output` (in the trunk's layout) the same way.
inline TrunkResult RunTrunk(const std::vector<ConvLayer>& layers,
                            ConvTrunk::Layout layout, size_t in_channels,
                            size_t height, size_t width, const Tensor& input,
                            const Tensor& grad_output) {
  namespace ref = apots::tensor::reference;
  const size_t batch = input.dim(0);
  const size_t plane = height * width;
  const size_t last = layers.size() - 1;
  const size_t out_channels = layers[last].weight->rows();
  TrunkResult result;
  result.output = Tensor(grad_output.shape());
  result.grad_input = Tensor({batch, in_channels, height, width});
  for (const ConvLayer& layer : layers) {
    result.grad_weight.push_back(Tensor::Zeros(layer.weight->shape()));
    result.grad_bias.push_back(Tensor::Zeros(layer.bias->shape()));
    result.pre.push_back(Tensor({batch, layer.weight->rows(), plane}));
  }
  for (size_t n = 0; n < batch; ++n) {
    // Forward: columns and pre-activation of every layer, for backward.
    std::vector<Tensor> columns;
    std::vector<Tensor> pre;
    Tensor x({in_channels, height, width});
    std::copy(input.data() + n * in_channels * plane,
              input.data() + (n + 1) * in_channels * plane, x.data());
    for (const ConvLayer& layer : layers) {
      columns.push_back(
          ref::Im2Col(x, layer.kernel, layer.kernel, layer.kernel / 2));
      Tensor out = ref::Matmul(*layer.weight, columns.back());
      const size_t channels = out.rows();
      for (size_t c = 0; c < channels; ++c) {
        for (size_t p = 0; p < plane; ++p) out.At(c, p) += (*layer.bias)[c];
      }
      pre.push_back(out);
      x = Tensor({channels, height, width});
      for (size_t i = 0; i < out.size(); ++i) {
        x[i] = out[i] > 0.0f ? out[i] : 0.0f;
      }
    }
    for (size_t l = 0; l < layers.size(); ++l) {
      std::copy(pre[l].data(), pre[l].data() + pre[l].size(),
                result.pre[l].data() + n * pre[l].size());
    }
    for (size_t c = 0; c < out_channels; ++c) {
      for (size_t p = 0; p < plane; ++p) {
        result.output[OutputIndex(layout, n, c, p, out_channels, height,
                                  width)] = x[c * plane + p];
      }
    }

    // Backward, last layer first.
    Tensor grad({out_channels, plane});
    for (size_t c = 0; c < out_channels; ++c) {
      for (size_t p = 0; p < plane; ++p) {
        const float g = grad_output[OutputIndex(layout, n, c, p, out_channels,
                                                height, width)];
        grad.At(c, p) = pre[last].At(c, p) <= 0.0f ? 0.0f : g;
      }
    }
    for (size_t l = layers.size(); l-- > 0;) {
      const ConvLayer& layer = layers[l];
      const Tensor dw = ref::MatmulTransposeB(grad, columns[l]);
      for (size_t i = 0; i < dw.size(); ++i) result.grad_weight[l][i] += dw[i];
      for (size_t c = 0; c < grad.rows(); ++c) {
        float acc = 0.0f;
        for (size_t p = 0; p < plane; ++p) acc += grad.At(c, p);
        result.grad_bias[l][c] += acc;
      }
      const size_t in = layer.weight->cols() / (layer.kernel * layer.kernel);
      const Tensor dx =
          Col2Im(ref::MatmulTransposeA(*layer.weight, grad), in, height,
                 width, layer.kernel, layer.kernel / 2);
      if (l == 0) {
        std::copy(dx.data(), dx.data() + dx.size(),
                  result.grad_input.data() + n * dx.size());
        break;
      }
      grad = Tensor({in, plane});
      for (size_t i = 0; i < dx.size(); ++i) {
        grad[i] = pre[l - 1][i] <= 0.0f ? 0.0f : dx[i];
      }
    }
  }
  return result;
}

/// The trunk's layers, read from its Parameters() (weight, bias per layer).
inline std::vector<ConvLayer> LayersOf(ConvTrunk* trunk,
                                       const std::vector<size_t>& kernels) {
  const auto params = trunk->Parameters();
  std::vector<ConvLayer> layers;
  for (size_t l = 0; l < kernels.size(); ++l) {
    layers.push_back(
        {&params[2 * l]->value, &params[2 * l + 1]->value, kernels[l]});
  }
  return layers;
}

}  // namespace apots::conv_reference

#endif  // APOTS_TESTS_CONV_REFERENCE_H_

#ifndef APOTS_NN_CONV_TRUNK_H_
#define APOTS_NN_CONV_TRUNK_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "util/rng.h"

namespace apots::nn {

/// A stack of 2-D convolutions, each followed by a ReLU: the Table-I conv
/// trunk (3x3 / 1x1 / 3x3) that the C and H predictors share. Stride 1 and
/// "same" zero padding (odd kernels, pad = kernel / 2), so every layer keeps
/// the height x width image, which is how the trunk preserves the
/// (2m+1) x alpha speed matrix and its time axis.
///
/// Input: [batch, in_channels, height, width], or [batch, height, width]
/// when in_channels is 1. Between its layers the trunk keeps activations
/// channel-major, [channels, batch*height*width]: the layout a layer's
/// product writes and the next layer's im2col reads. So each layer is one
/// im2col over its samples (none for a 1x1 kernel) and one
/// [out, in*k*k] x [in*k*k, samples*height*width] product, and the bias and
/// ReLU are applied in one pass over the product's output. The last layer's
/// pass writes the predictor's layout (Layout).
///
/// Bits: every output element is its product's k-ascending chain, plus the
/// bias, through the ReLU, as a per-sample convolution computes it; and
/// every product keeps the row count a per-sample convolution gives it (out
/// channels forward, in*k*k for the input gradient), so the kernel choice
/// is the same too. Backward adds each sample's weight gradient
/// (tensor::AddProduct) and bias gradient in sample order, and takes its
/// scratch from the record's workspace.
class ConvTrunk : public Layer {
 public:
  enum class Layout {
    /// [batch, channels*height*width]: each sample's channels in turn,
    /// each a row-major height x width plane (flattened NCHW), which a
    /// Dense head reads.
    kFlat,
    /// [batch, width, channels*height]: the image columns as time steps,
    /// each a vector of channels*height features, channel-major, which an
    /// Lstm head reads.
    kSequence,
  };

  /// `channels[i]` and `kernels[i]` are layer i's output channels and
  /// (odd) kernel size.
  ConvTrunk(size_t in_channels, size_t height, size_t width,
            const std::vector<size_t>& channels,
            const std::vector<size_t>& kernels, Layout layout,
            apots::Rng* rng);

  const Tensor* Forward(const Tensor& input,
                        tensor::Workspace* ws) const override {
    return Run(input, ws, nullptr);
  }
  const Tensor* RecordForward(const Tensor& input,
                              tensor::Workspace* ws) override {
    return Run(input, ws, &record_);
  }
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  size_t out_channels() const { return layers_.back().out_channels; }

 private:
  struct Conv {
    size_t in_channels;
    size_t out_channels;
    size_t kernel;
    Parameter weight;  // [out_channels, in_channels*kernel*kernel]
    Parameter bias;    // [out_channels]
  };

  /// What Backward reads, all in the recorded forward's workspace: the
  /// input's shape, and the one batch-wide block's channel-major input and
  /// each layer's columns (kernels > 1) and activation.
  struct Record {
    RecordStamp stamp;
    std::vector<size_t> input_shape;
    const Tensor* x = nullptr;
    std::vector<const Tensor*> columns, acts;
  };

  /// The forward body; `record` is null for inference.
  const Tensor* Run(const Tensor& input, tensor::Workspace* ws,
                    Record* record) const;

  /// Checks the input's shape; returns its batch size.
  size_t CheckInput(const Tensor& input) const;
  std::vector<size_t> OutputShape(size_t batch) const;
  /// Copies samples [n0, n0 + count) of the input into channel-major `x`
  /// ([in_channels, count*height*width]).
  void GatherInput(const Tensor& input, size_t n0, Tensor* x) const;
  /// Runs layer `l` on channel-major `x`. `columns` (kernels > 1 only) and
  /// `act` are its [in*k*k, cols] and [out, cols] buffers, cols =
  /// count*height*width. Leaves the layer's activation in `act`; the last
  /// layer also writes it into `out`, as samples [n0, n0 + count) of the
  /// trunk's layout.
  void RunLayer(size_t l, const Tensor& x, Tensor* columns, Tensor* act,
                size_t n0, Tensor* out) const;

  size_t in_channels_;
  size_t height_;
  size_t width_;
  Layout layout_;
  std::vector<Conv> layers_;
  /// Samples per block of the inference forward and of Backward.
  size_t block_samples_;
  Record record_;
};

}  // namespace apots::nn

#endif  // APOTS_NN_CONV_TRUNK_H_

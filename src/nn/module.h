#ifndef APOTS_NN_MODULE_H_
#define APOTS_NN_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace apots::nn {

using apots::tensor::Tensor;

/// A trainable weight: value plus accumulated gradient of the same shape.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string name_in, Tensor value_in)
      : name(std::move(name_in)),
        value(std::move(value_in)),
        grad(Tensor::Zeros(value.shape())) {}

  /// Clears the accumulated gradient.
  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Where a layer's recorded forward left what its Backward reads: the
/// workspace and the generation it wrote in. Backward reads a record only
/// when one was made and its workspace has not been reset since, and takes
/// its scratch from that workspace after a mark, rewinding on return.
class RecordStamp {
 public:
  /// Notes a recorded forward into `ws`'s current generation.
  void Set(tensor::Workspace* ws) {
    ws_ = ws;
    generation_ = ws->generation();
  }
  /// Dies, naming `layer`, unless a recorded forward came before and its
  /// workspace was not reset since; returns that workspace.
  tensor::Workspace* Check(const std::string& layer) const;

 private:
  tensor::Workspace* ws_ = nullptr;
  size_t generation_ = 0;
};

/// The record of a layer whose Backward reads only its input.
struct InputRecord {
  RecordStamp stamp;
  const Tensor* input = nullptr;
};

/// Base class for differentiable layers. Every layer has one forward body,
/// reached two ways. Forward serves: it is const and writes nothing but its
/// workspace. RecordForward trains: the same body, which also records into
/// the workspace what Backward reads. Backward consumes that record,
/// accumulates parameter gradients, and returns the gradient with respect
/// to the layer input.
///
/// Batch conventions: Dense-style layers take [batch, features]; ConvTrunk
/// takes [batch, channels, height, width]; Lstm takes
/// [batch, time, features].
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Inference forward: borrows the output (and any scratch) from `ws` and
  /// writes no layer state, so concurrent inference forwards on a shared
  /// layer are safe. Runs at the precision PrepareQuantized chose. The
  /// returned pointer lives until `ws->Reset()`.
  virtual const Tensor* Forward(const Tensor& input,
                                tensor::Workspace* ws) const = 0;

  /// Training forward: Forward's body at fp32, which also records in `ws`
  /// what Backward reads and keeps those slots (no scratch is rewound).
  /// The record may point at `input`, which must stay alive and unchanged
  /// until Backward; predictors keep theirs in the same workspace.
  virtual const Tensor* RecordForward(const Tensor& input,
                                      tensor::Workspace* ws) = 0;

  /// Backpropagates `grad_output` (gradient of the loss w.r.t. the output
  /// of the last RecordForward), accumulating into parameter grads, and
  /// returns the gradient w.r.t. the layer's input. Dies unless a
  /// RecordForward came before and its workspace was not reset since.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Packs this layer's frozen weights for reduced-precision inference
  /// (tensor::QuantMode). Only the unrecorded Forward reads the packed
  /// weights; recorded forwards run fp32, so gradients are unaffected.
  /// The packed copy snapshots the weights at call time — call again after
  /// any weight mutation, or with kOff to drop the packed copy and return
  /// to exact fp32 inference. Default: no-op (layers without matmul
  /// weights have nothing to quantize).
  virtual void PrepareQuantized(tensor::QuantMode mode) { (void)mode; }

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// valid for the layer's lifetime.
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Short human-readable layer description.
  virtual std::string Name() const = 0;

 protected:
  Layer() = default;
};

/// Zeroes the gradients of all `params`.
void ZeroAllGrads(const std::vector<Parameter*>& params);

/// Total number of scalar weights across `params`.
size_t CountWeights(const std::vector<Parameter*>& params);

/// Global L2 norm of all gradients (diagnostic / clipping input).
double GradNorm(const std::vector<Parameter*>& params);

/// Scales gradients so their global L2 norm is at most `max_norm`.
void ClipGradNorm(const std::vector<Parameter*>& params, double max_norm);

}  // namespace apots::nn

#endif  // APOTS_NN_MODULE_H_

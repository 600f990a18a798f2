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

/// Base class for differentiable layers. Layers are stateful across a
/// Forward/Backward pair: Forward caches whatever Backward needs, Backward
/// consumes the cache, accumulates parameter gradients, and returns the
/// gradient with respect to the layer input.
///
/// Batch conventions: Dense-style layers take [batch, features]; ConvTrunk
/// takes [batch, channels, height, width]; Lstm takes
/// [batch, time, features].
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output. `training` marks the training path; no
  /// layer behaves differently under it. This allocating forward is the
  /// training path and the bitwise reference of the inference forward
  /// below.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// Inference forward: borrows the output (and any scratch) from `ws`
  /// instead of allocating and writes no layer state, so concurrent
  /// inference forwards on a shared layer are safe. Bitwise identical to
  /// the allocating Forward; `training` must be false (checked). The
  /// returned pointer lives until `ws->Reset()`; it may alias `&input` for
  /// identity layers. The default fails: only layers that run at inference
  /// have a body.
  virtual const Tensor* Forward(const Tensor& input, bool training,
                                tensor::Workspace* ws) const;

  /// Backpropagates `grad_output` (gradient of the loss w.r.t. this layer's
  /// output), accumulating into parameter grads, and returns the gradient
  /// w.r.t. the layer's input. Must be called after a matching Forward.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Packs this layer's frozen weights for reduced-precision inference
  /// (tensor::QuantMode). Only the workspace inference Forward consults the
  /// packed weights; training and the allocating Forward always run fp32,
  /// so gradients are unaffected. The packed copy snapshots the weights at
  /// call time — call again after any weight mutation, or with kOff to
  /// drop the packed copy and return to exact fp32 inference. Default:
  /// no-op (layers without matmul weights have nothing to quantize).
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

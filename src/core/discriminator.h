#ifndef APOTS_CORE_DISCRIMINATOR_H_
#define APOTS_CORE_DISCRIMINATOR_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/sequential.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace apots::core {

using apots::nn::Parameter;
using apots::tensor::Tensor;

/// Discriminator hyper-parameters. The paper specifies "five fully
/// connected layers"; widths default to a tapering 256..16 stack ending in
/// one logit, with LeakyReLU activations (the customary GAN choice).
struct DiscriminatorHparams {
  std::vector<size_t> hidden = {256, 128, 64, 32};  ///< + final logit layer
  float leaky_slope = 0.2f;
  float learning_rate = 0.001f;

  /// Shrinks widths by `divisor` (minimum 4), mirroring
  /// PredictorHparams::Scaled.
  static DiscriminatorHparams Scaled(size_t divisor);
};

/// D from Eq. 2/4: takes a length-alpha speed sequence (real
/// S_{t-a+b+1:t+b} or predicted S-hat) optionally concatenated with the
/// conditioning context E_{t-alpha:t-1} (adjacent-speed + non-speed data,
/// flattened), and emits one raw logit per sequence; sigmoid(logit) is the
/// probability the sequence is real.
class Discriminator {
 public:
  /// `context_width` may be 0 (unconditioned, Eq. 2) or the flat width of
  /// the conditioning block (Eq. 4).
  Discriminator(const DiscriminatorHparams& hparams, size_t alpha,
                size_t context_width, apots::Rng* rng);

  /// `sequences` is [batch, alpha]; `context` is [batch, context_width]
  /// (ignored when context_width == 0). Returns logits [batch, 1]. Records
  /// in D's own workspace (reset here) what Backward reads, the joined
  /// input included, so neither argument need outlive the call.
  Tensor Forward(const Tensor& sequences, const Tensor& context);

  /// Backpropagates logits-gradient [batch, 1] through the last Forward;
  /// returns the gradient with respect to the *sequence* part of the input
  /// (context gradient is dropped — the context is data, not a trainable
  /// path).
  Tensor Backward(const Tensor& grad_logits);

  std::vector<Parameter*> Parameters();

  size_t alpha() const { return alpha_; }
  size_t context_width() const { return context_width_; }
  std::string Name() const;

  /// The workspace Forward records into; it stops growing once it has
  /// seen each batch size.
  const apots::tensor::Workspace& training_workspace() const { return ws_; }

 private:
  size_t alpha_;
  size_t context_width_;
  apots::nn::Sequential net_;
  apots::tensor::Workspace ws_;
};

}  // namespace apots::core

#endif  // APOTS_CORE_DISCRIMINATOR_H_

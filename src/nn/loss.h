#ifndef APOTS_NN_LOSS_H_
#define APOTS_NN_LOSS_H_

#include "nn/module.h"

namespace apots::nn {

/// Result of a loss evaluation: scalar value plus gradient w.r.t. the
/// prediction, already averaged the same way the value is.
struct LossResult {
  float value = 0.0f;
  Tensor grad;
};

/// Mean squared error over all elements: mean((pred - target)^2).
LossResult MseLoss(const Tensor& prediction, const Tensor& target);

/// Binary cross-entropy on raw logits (numerically stable):
/// mean over elements of  max(z,0) - z*y + log(1 + exp(-|z|)).
/// Used for the discriminator and for the adversarial term of J_P.
LossResult BceWithLogitsLoss(const Tensor& logits, const Tensor& target);

/// The predictor's adversarial term log(1 - D(fake)) from Eq. 1, expressed
/// on logits. Minimizing this pushes D(fake) toward 1. We use the
/// non-saturating form -log(D(fake)) (the standard GAN practice, identical
/// fixed point), i.e. BCE against target 1.
LossResult AdversarialGeneratorLoss(const Tensor& fake_logits);

}  // namespace apots::nn

#endif  // APOTS_NN_LOSS_H_

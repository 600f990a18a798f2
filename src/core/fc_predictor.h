#ifndef APOTS_CORE_FC_PREDICTOR_H_
#define APOTS_CORE_FC_PREDICTOR_H_

#include <string>

#include "core/predictor.h"

namespace apots::core {

/// The F predictor: flatten the [rows, alpha] feature matrix and pass it
/// through the Table-I stack of fully connected + ReLU layers to a single
/// scaled-speed output.
class FcPredictor : public Predictor {
 public:
  FcPredictor(const PredictorHparams& hparams, size_t num_rows, size_t alpha,
              apots::Rng* rng);

  PredictorType type() const override { return PredictorType::kFc; }
  std::string Name() const override;

 protected:
  const Tensor* NetInput(const Tensor& batch,
                         apots::tensor::Workspace* ws) const override;
  Tensor BatchGradient(Tensor net_grad) const override;
};

}  // namespace apots::core

#endif  // APOTS_CORE_FC_PREDICTOR_H_

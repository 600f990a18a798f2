#ifndef APOTS_CORE_FC_PREDICTOR_H_
#define APOTS_CORE_FC_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/predictor.h"
#include "nn/sequential.h"

namespace apots::core {

/// The F predictor: flatten the [rows, alpha] feature matrix and pass it
/// through the Table-I stack of fully connected + ReLU layers to a single
/// scaled-speed output.
class FcPredictor : public Predictor {
 public:
  FcPredictor(const PredictorHparams& hparams, size_t num_rows, size_t alpha,
              apots::Rng* rng);

  Tensor Forward(const Tensor& batch, bool training) override;
  const Tensor* Forward(const Tensor& batch, bool training,
                        apots::tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(apots::tensor::QuantMode mode) override {
    net_.PrepareQuantized(mode);
  }
  std::vector<Parameter*> Parameters() override;
  PredictorType type() const override { return PredictorType::kFc; }
  std::string Name() const override;

 private:
  size_t num_rows_;
  size_t alpha_;
  apots::nn::Sequential net_;
};

}  // namespace apots::core

#endif  // APOTS_CORE_FC_PREDICTOR_H_

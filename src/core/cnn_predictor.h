#ifndef APOTS_CORE_CNN_PREDICTOR_H_
#define APOTS_CORE_CNN_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/predictor.h"
#include "nn/sequential.h"

namespace apots::core {

/// The C predictor: reads the feature matrix as a 1-channel image (the
/// speed-matrix view of Eq. 6) through the Table-I conv trunk
/// (nn::ConvTrunk: 3x3 / 1x1 / 3x3, "same" padding), then a dense head on
/// the flattened features to one output.
class CnnPredictor : public Predictor {
 public:
  CnnPredictor(const PredictorHparams& hparams, size_t num_rows, size_t alpha,
               apots::Rng* rng);

  Tensor Forward(const Tensor& batch, bool training) override;
  const Tensor* Forward(const Tensor& batch, bool training,
                        apots::tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(apots::tensor::QuantMode mode) override {
    net_.PrepareQuantized(mode);  // the trunk no-ops; the Dense head packs
  }
  std::vector<Parameter*> Parameters() override;
  PredictorType type() const override { return PredictorType::kCnn; }
  std::string Name() const override;

 private:
  size_t num_rows_;
  size_t alpha_;
  apots::nn::Sequential net_;
};

}  // namespace apots::core

#endif  // APOTS_CORE_CNN_PREDICTOR_H_

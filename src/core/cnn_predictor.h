#ifndef APOTS_CORE_CNN_PREDICTOR_H_
#define APOTS_CORE_CNN_PREDICTOR_H_

#include <string>

#include "core/predictor.h"

namespace apots::core {

/// The C predictor: reads the feature matrix as a 1-channel image (the
/// speed-matrix view of Eq. 6) through the Table-I conv trunk
/// (nn::ConvTrunk: 3x3 / 1x1 / 3x3, "same" padding), then a dense head on
/// the flattened features to one output. Only the head has a quantized
/// path.
class CnnPredictor : public Predictor {
 public:
  CnnPredictor(const PredictorHparams& hparams, size_t num_rows, size_t alpha,
               apots::Rng* rng);

  PredictorType type() const override { return PredictorType::kCnn; }
  std::string Name() const override;
};

}  // namespace apots::core

#endif  // APOTS_CORE_CNN_PREDICTOR_H_

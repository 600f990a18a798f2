#ifndef APOTS_CORE_HYBRID_PREDICTOR_H_
#define APOTS_CORE_HYBRID_PREDICTOR_H_

#include <string>

#include "core/predictor.h"

namespace apots::core {

/// The H predictor (CNN + LSTM, LC-RNN style): the conv trunk extracts
/// spatio-temporal features from the speed-matrix image while preserving
/// the time axis ("same" padding) and writes them as an alpha-step
/// sequence of channel x row features (ConvTrunk::Layout::kSequence),
/// which the stacked LSTM consumes. Only the LSTM head has a quantized
/// path.
class HybridPredictor : public Predictor {
 public:
  HybridPredictor(const PredictorHparams& hparams, size_t num_rows,
                  size_t alpha, apots::Rng* rng);

  PredictorType type() const override { return PredictorType::kHybrid; }
  std::string Name() const override;
};

}  // namespace apots::core

#endif  // APOTS_CORE_HYBRID_PREDICTOR_H_

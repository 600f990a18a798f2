#ifndef APOTS_CORE_HYBRID_PREDICTOR_H_
#define APOTS_CORE_HYBRID_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/predictor.h"
#include "nn/conv_trunk.h"
#include "nn/sequential.h"

namespace apots::core {

/// The H predictor (CNN + LSTM, LC-RNN style): the conv trunk extracts
/// spatio-temporal features from the speed-matrix image while preserving
/// the time axis ("same" padding) and writes them as an alpha-step
/// sequence of channel x row features (ConvTrunk::Layout::kSequence),
/// which the stacked LSTM consumes.
class HybridPredictor : public Predictor {
 public:
  HybridPredictor(const PredictorHparams& hparams, size_t num_rows,
                  size_t alpha, apots::Rng* rng);

  Tensor Forward(const Tensor& batch, bool training) override;
  const Tensor* Forward(const Tensor& batch, bool training,
                        apots::tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(apots::tensor::QuantMode mode) override {
    lstm_head_.PrepareQuantized(mode);  // the trunk stays fp32
  }
  std::vector<Parameter*> Parameters() override;
  PredictorType type() const override { return PredictorType::kHybrid; }
  std::string Name() const override;

 private:
  size_t num_rows_;
  size_t alpha_;
  apots::nn::ConvTrunk conv_;
  apots::nn::Sequential lstm_head_;
};

}  // namespace apots::core

#endif  // APOTS_CORE_HYBRID_PREDICTOR_H_

#ifndef APOTS_CORE_LSTM_PREDICTOR_H_
#define APOTS_CORE_LSTM_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/predictor.h"
#include "nn/sequential.h"

namespace apots::core {

/// The L predictor: the [rows, alpha] feature matrix is read as an
/// alpha-step sequence of per-interval feature vectors (one column per
/// step), run through the Table-I stacked LSTMs, and the final hidden
/// state is projected to a single output.
class LstmPredictor : public Predictor {
 public:
  LstmPredictor(const PredictorHparams& hparams, size_t num_rows,
                size_t alpha, apots::Rng* rng);

  Tensor Forward(const Tensor& batch, bool training) override;
  const Tensor* Forward(const Tensor& batch, bool training,
                        apots::tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(apots::tensor::QuantMode mode) override {
    net_.PrepareQuantized(mode);
  }
  std::vector<Parameter*> Parameters() override;
  PredictorType type() const override { return PredictorType::kLstm; }
  std::string Name() const override;

 private:
  size_t num_rows_;
  size_t alpha_;
  apots::nn::Sequential net_;
};

/// Appends the stacked-LSTM head (used by LstmPredictor and
/// HybridPredictor): LSTM layers per `hparams.lstm_hidden` (all but the
/// last return sequences) followed by a Dense to one output.
void BuildLstmHead(const PredictorHparams& hparams, size_t input_features,
                   apots::nn::Sequential* net, apots::Rng* rng);

}  // namespace apots::core

#endif  // APOTS_CORE_LSTM_PREDICTOR_H_

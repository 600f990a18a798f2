#ifndef APOTS_CORE_LSTM_PREDICTOR_H_
#define APOTS_CORE_LSTM_PREDICTOR_H_

#include <string>

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

  PredictorType type() const override { return PredictorType::kLstm; }
  std::string Name() const override;

 protected:
  const Tensor* NetInput(const Tensor& batch,
                         apots::tensor::Workspace* ws) const override;
  Tensor BatchGradient(Tensor net_grad) const override;
};

/// Appends the stacked-LSTM head (used by LstmPredictor and
/// HybridPredictor): LSTM layers per `hparams.lstm_hidden` (all but the
/// last return sequences) followed by a Dense to one output.
void BuildLstmHead(const PredictorHparams& hparams, size_t input_features,
                   apots::nn::Sequential* net, apots::Rng* rng);

}  // namespace apots::core

#endif  // APOTS_CORE_LSTM_PREDICTOR_H_

#include "core/predictor.h"

#include <algorithm>

#include "core/cnn_predictor.h"
#include "core/fc_predictor.h"
#include "core/hybrid_predictor.h"
#include "core/lstm_predictor.h"
#include "util/logging.h"

namespace apots::core {

const char* PredictorTypeName(PredictorType type) {
  switch (type) {
    case PredictorType::kFc:
      return "F";
    case PredictorType::kLstm:
      return "L";
    case PredictorType::kCnn:
      return "C";
    case PredictorType::kHybrid:
      return "H";
  }
  return "?";
}

const char* PredictorTypeLabel(PredictorType type) {
  switch (type) {
    case PredictorType::kFc:
      return "FC";
    case PredictorType::kLstm:
      return "LSTM";
    case PredictorType::kCnn:
      return "CNN";
    case PredictorType::kHybrid:
      return "Hybrid";
  }
  return "?";
}

PredictorHparams PredictorHparams::Paper(PredictorType type) {
  PredictorHparams hparams;
  hparams.type = type;
  // Table I: F has 4 hidden layers (512, 128, 256, 64); L has 2 (512,
  // 512); C has 3 conv layers (128, 32, 64) with 3x3 / 1x1 / 3x3 filters;
  // H combines C's conv stack with L-sized LSTMs. Learning rate 0.001
  // across the board.
  return hparams;
}

PredictorHparams PredictorHparams::Scaled(PredictorType type,
                                          size_t divisor) {
  APOTS_CHECK_GT(divisor, 0u);
  PredictorHparams hparams = Paper(type);
  auto shrink = [divisor](std::vector<size_t>* widths) {
    for (size_t& w : *widths) w = std::max<size_t>(4, w / divisor);
  };
  shrink(&hparams.fc_hidden);
  shrink(&hparams.lstm_hidden);
  shrink(&hparams.cnn_channels);
  return hparams;
}

Tensor Predictor::Forward(const Tensor& batch, bool training) {
  training_ws_.Reset();
  return *net_.RecordForward(*Input(batch, &training_ws_), &training_ws_);
}

const Tensor* Predictor::Forward(const Tensor& batch, bool training,
                                 apots::tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  return net_.Forward(*Input(batch, ws), ws);
}

Tensor Predictor::Backward(const Tensor& grad_output) {
  return BatchGradient(net_.Backward(grad_output));
}

const Tensor* Predictor::Input(const Tensor& batch,
                               apots::tensor::Workspace* ws) const {
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  return NetInput(batch, ws);
}

std::unique_ptr<Predictor> MakePredictor(const PredictorHparams& hparams,
                                         size_t num_rows, size_t alpha,
                                         apots::Rng* rng) {
  switch (hparams.type) {
    case PredictorType::kFc:
      return std::make_unique<FcPredictor>(hparams, num_rows, alpha, rng);
    case PredictorType::kLstm:
      return std::make_unique<LstmPredictor>(hparams, num_rows, alpha, rng);
    case PredictorType::kCnn:
      return std::make_unique<CnnPredictor>(hparams, num_rows, alpha, rng);
    case PredictorType::kHybrid:
      return std::make_unique<HybridPredictor>(hparams, num_rows, alpha,
                                               rng);
  }
  APOTS_CHECK(false) << "unknown predictor type";
  return nullptr;
}

}  // namespace apots::core

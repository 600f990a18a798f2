#include "core/lstm_predictor.h"

#include "nn/dense.h"
#include "nn/lstm.h"
#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::core {

void BuildLstmHead(const PredictorHparams& hparams, size_t input_features,
                   apots::nn::Sequential* net, apots::Rng* rng) {
  APOTS_CHECK(!hparams.lstm_hidden.empty());
  size_t features = input_features;
  for (size_t i = 0; i < hparams.lstm_hidden.size(); ++i) {
    const bool last = i + 1 == hparams.lstm_hidden.size();
    net->Emplace<apots::nn::Lstm>(features, hparams.lstm_hidden[i],
                                  /*return_sequences=*/!last, rng);
    features = hparams.lstm_hidden[i];
  }
  net->Emplace<apots::nn::Dense>(features, 1, rng,
                                 apots::nn::Init::kXavierUniform);
}

LstmPredictor::LstmPredictor(const PredictorHparams& hparams,
                             size_t num_rows, size_t alpha, apots::Rng* rng)
    : Predictor(num_rows, alpha) {
  BuildLstmHead(hparams, num_rows, &net_, rng);
}

const Tensor* LstmPredictor::NetInput(const Tensor& batch,
                                      apots::tensor::Workspace* ws) const {
  // [N, rows, alpha] -> [N, alpha, rows]: one feature vector per step.
  Tensor* sequence = ws->Acquire({batch.dim(0), alpha_, num_rows_});
  apots::tensor::Transpose12Into(batch, sequence);
  return sequence;
}

Tensor LstmPredictor::BatchGradient(Tensor net_grad) const {
  return apots::tensor::Transpose12(net_grad);
}

std::string LstmPredictor::Name() const {
  return apots::StrFormat("LstmPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

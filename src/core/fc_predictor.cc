#include "core/fc_predictor.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/dense.h"
#include "util/string_util.h"

namespace apots::core {

FcPredictor::FcPredictor(const PredictorHparams& hparams, size_t num_rows,
                         size_t alpha, apots::Rng* rng)
    : Predictor(num_rows, alpha) {
  size_t width = num_rows * alpha;
  for (size_t hidden : hparams.fc_hidden) {
    net_.Emplace<apots::nn::Dense>(width, hidden, rng,
                                   apots::nn::Init::kHeNormal);
    net_.Emplace<apots::nn::Relu>();
    width = hidden;
  }
  net_.Emplace<apots::nn::Dense>(width, 1, rng,
                                 apots::nn::Init::kXavierUniform);
}

const Tensor* FcPredictor::NetInput(const Tensor& batch,
                                    apots::tensor::Workspace* ws) const {
  Tensor* flat = ws->Acquire({batch.dim(0), num_rows_ * alpha_});
  std::copy(batch.data(), batch.data() + batch.size(), flat->data());
  return flat;
}

Tensor FcPredictor::BatchGradient(Tensor net_grad) const {
  return net_grad.Reshape({net_grad.dim(0), num_rows_, alpha_});
}

std::string FcPredictor::Name() const {
  return apots::StrFormat("FcPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

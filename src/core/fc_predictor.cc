#include "core/fc_predictor.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/dense.h"
#include "util/string_util.h"

namespace apots::core {

FcPredictor::FcPredictor(const PredictorHparams& hparams, size_t num_rows,
                         size_t alpha, apots::Rng* rng)
    : num_rows_(num_rows), alpha_(alpha) {
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

Tensor FcPredictor::Forward(const Tensor& batch, bool training) {
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  const Tensor flat = batch.Reshape({batch.dim(0), num_rows_ * alpha_});
  return net_.Forward(flat, training);
}

const Tensor* FcPredictor::Forward(const Tensor& batch, bool training,
                                   apots::tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  Tensor* flat = ws->Acquire({batch.dim(0), num_rows_ * alpha_});
  std::copy(batch.data(), batch.data() + batch.size(), flat->data());
  return net_.Forward(*flat, training, ws);
}

Tensor FcPredictor::Backward(const Tensor& grad_output) {
  Tensor grad_flat = net_.Backward(grad_output);
  return grad_flat.Reshape({grad_flat.dim(0), num_rows_, alpha_});
}

std::vector<Parameter*> FcPredictor::Parameters() {
  return net_.Parameters();
}

std::string FcPredictor::Name() const {
  return apots::StrFormat("FcPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

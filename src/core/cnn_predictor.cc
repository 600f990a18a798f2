#include "core/cnn_predictor.h"

#include "nn/conv_trunk.h"
#include "nn/dense.h"
#include "util/string_util.h"

namespace apots::core {

CnnPredictor::CnnPredictor(const PredictorHparams& hparams, size_t num_rows,
                           size_t alpha, apots::Rng* rng)
    : num_rows_(num_rows), alpha_(alpha) {
  const auto* trunk = net_.Emplace<apots::nn::ConvTrunk>(
      1, num_rows, alpha, hparams.cnn_channels, hparams.cnn_kernels,
      apots::nn::ConvTrunk::Layout::kFlat, rng);
  net_.Emplace<apots::nn::Dense>(trunk->out_channels() * num_rows * alpha, 1,
                                 rng, apots::nn::Init::kXavierUniform);
}

Tensor CnnPredictor::Forward(const Tensor& batch, bool training) {
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  return net_.Forward(batch, training);
}

const Tensor* CnnPredictor::Forward(const Tensor& batch, bool training,
                                    apots::tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  return net_.Forward(batch, training, ws);
}

Tensor CnnPredictor::Backward(const Tensor& grad_output) {
  return net_.Backward(grad_output);
}

std::vector<Parameter*> CnnPredictor::Parameters() {
  return net_.Parameters();
}

std::string CnnPredictor::Name() const {
  return apots::StrFormat("CnnPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

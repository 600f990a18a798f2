#include "core/cnn_predictor.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "util/string_util.h"

namespace apots::core {

size_t BuildConvTrunk(const PredictorHparams& hparams,
                      apots::nn::Sequential* net, apots::Rng* rng) {
  APOTS_CHECK_EQ(hparams.cnn_channels.size(), hparams.cnn_kernels.size());
  size_t channels = 1;
  for (size_t i = 0; i < hparams.cnn_channels.size(); ++i) {
    const size_t k = hparams.cnn_kernels[i];
    const size_t pad = k / 2;  // "same" for odd kernels
    net->Emplace<apots::nn::Conv2d>(channels, hparams.cnn_channels[i], k, k,
                                    pad, rng);
    net->Emplace<apots::nn::Relu>();
    channels = hparams.cnn_channels[i];
  }
  return channels;
}

CnnPredictor::CnnPredictor(const PredictorHparams& hparams, size_t num_rows,
                           size_t alpha, apots::Rng* rng)
    : num_rows_(num_rows), alpha_(alpha) {
  const size_t channels = BuildConvTrunk(hparams, &net_, rng);
  net_.Emplace<apots::nn::Flatten>();
  net_.Emplace<apots::nn::Dense>(channels * num_rows * alpha, 1, rng,
                                 apots::nn::Init::kXavierUniform);
}

Tensor CnnPredictor::Forward(const Tensor& batch, bool training) {
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  const Tensor image =
      batch.Reshape({batch.dim(0), 1, num_rows_, alpha_});
  return net_.Forward(image, training);
}

const Tensor* CnnPredictor::Forward(const Tensor& batch, bool training,
                                    apots::tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  Tensor* image = ws->Acquire({batch.dim(0), 1, num_rows_, alpha_});
  std::copy(batch.data(), batch.data() + batch.size(), image->data());
  return net_.Forward(*image, training, ws);
}

Tensor CnnPredictor::Backward(const Tensor& grad_output) {
  Tensor grad_image = net_.Backward(grad_output);
  return grad_image.Reshape({grad_image.dim(0), num_rows_, alpha_});
}

std::vector<Parameter*> CnnPredictor::Parameters() {
  return net_.Parameters();
}

std::string CnnPredictor::Name() const {
  return apots::StrFormat("CnnPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

#include "core/cnn_predictor.h"

#include "nn/conv_trunk.h"
#include "nn/dense.h"
#include "util/string_util.h"

namespace apots::core {

CnnPredictor::CnnPredictor(const PredictorHparams& hparams, size_t num_rows,
                           size_t alpha, apots::Rng* rng)
    : Predictor(num_rows, alpha) {
  const auto* trunk = net_.Emplace<apots::nn::ConvTrunk>(
      1, num_rows, alpha, hparams.cnn_channels, hparams.cnn_kernels,
      apots::nn::ConvTrunk::Layout::kFlat, rng);
  net_.Emplace<apots::nn::Dense>(trunk->out_channels() * num_rows * alpha, 1,
                                 rng, apots::nn::Init::kXavierUniform);
}

std::string CnnPredictor::Name() const {
  return apots::StrFormat("CnnPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

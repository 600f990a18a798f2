#include "core/hybrid_predictor.h"

#include "core/lstm_predictor.h"
#include "nn/conv_trunk.h"
#include "util/string_util.h"

namespace apots::core {

HybridPredictor::HybridPredictor(const PredictorHparams& hparams,
                                 size_t num_rows, size_t alpha,
                                 apots::Rng* rng)
    : Predictor(num_rows, alpha) {
  const auto* trunk = net_.Emplace<apots::nn::ConvTrunk>(
      1, num_rows, alpha, hparams.cnn_channels, hparams.cnn_kernels,
      apots::nn::ConvTrunk::Layout::kSequence, rng);
  BuildLstmHead(hparams, trunk->out_channels() * num_rows, &net_, rng);
}

std::string HybridPredictor::Name() const {
  return apots::StrFormat("HybridPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

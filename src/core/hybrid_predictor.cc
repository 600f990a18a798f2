#include "core/hybrid_predictor.h"

#include "core/lstm_predictor.h"
#include "util/string_util.h"

namespace apots::core {

HybridPredictor::HybridPredictor(const PredictorHparams& hparams,
                                 size_t num_rows, size_t alpha,
                                 apots::Rng* rng)
    : num_rows_(num_rows),
      alpha_(alpha),
      conv_(1, num_rows, alpha, hparams.cnn_channels, hparams.cnn_kernels,
            apots::nn::ConvTrunk::Layout::kSequence, rng) {
  BuildLstmHead(hparams, conv_.out_channels() * num_rows, &lstm_head_, rng);
}

Tensor HybridPredictor::Forward(const Tensor& batch, bool training) {
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  return lstm_head_.Forward(conv_.Forward(batch, training), training);
}

const Tensor* HybridPredictor::Forward(const Tensor& batch, bool training,
                                       apots::tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  return lstm_head_.Forward(*conv_.Forward(batch, training, ws), training, ws);
}

Tensor HybridPredictor::Backward(const Tensor& grad_output) {
  return conv_.Backward(lstm_head_.Backward(grad_output));
}

std::vector<Parameter*> HybridPredictor::Parameters() {
  std::vector<Parameter*> params = conv_.Parameters();
  for (Parameter* p : lstm_head_.Parameters()) params.push_back(p);
  return params;
}

std::string HybridPredictor::Name() const {
  return apots::StrFormat("HybridPredictor(%zux%zu)", num_rows_, alpha_);
}

}  // namespace apots::core

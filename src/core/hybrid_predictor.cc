#include "core/hybrid_predictor.h"

#include <algorithm>

#include "core/cnn_predictor.h"
#include "core/lstm_predictor.h"
#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::core {

HybridPredictor::HybridPredictor(const PredictorHparams& hparams,
                                 size_t num_rows, size_t alpha,
                                 apots::Rng* rng)
    : num_rows_(num_rows), alpha_(alpha) {
  conv_channels_ = BuildConvTrunk(hparams, &conv_, rng);
  BuildLstmHead(hparams, conv_channels_ * num_rows, &lstm_head_, rng);
}

Tensor HybridPredictor::Forward(const Tensor& batch, bool training) {
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  const size_t n = batch.dim(0);
  const Tensor image = batch.Reshape({n, 1, num_rows_, alpha_});
  Tensor features = conv_.Forward(image, training);
  // [N, C, rows, alpha] -> [N, C*rows, alpha] -> [N, alpha, C*rows].
  features = features.Reshape({n, conv_channels_ * num_rows_, alpha_});
  const Tensor sequence = apots::tensor::Transpose12(features);
  return lstm_head_.Forward(sequence, training);
}

const Tensor* HybridPredictor::Forward(const Tensor& batch, bool training,
                                       apots::tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_EQ(batch.rank(), 3u);
  APOTS_CHECK_EQ(batch.dim(1), num_rows_);
  APOTS_CHECK_EQ(batch.dim(2), alpha_);
  const size_t n = batch.dim(0);
  Tensor* image = ws->Acquire({n, 1, num_rows_, alpha_});
  std::copy(batch.data(), batch.data() + batch.size(), image->data());
  const Tensor* features = conv_.Forward(*image, training, ws);
  // [N, C, rows, alpha] -> [N, C*rows, alpha] -> [N, alpha, C*rows].
  Tensor* folded = ws->Acquire({n, conv_channels_ * num_rows_, alpha_});
  std::copy(features->data(), features->data() + features->size(),
            folded->data());
  Tensor* sequence = ws->Acquire({n, alpha_, conv_channels_ * num_rows_});
  apots::tensor::Transpose12Into(*folded, sequence);
  return lstm_head_.Forward(*sequence, training, ws);
}

Tensor HybridPredictor::Backward(const Tensor& grad_output) {
  Tensor grad_sequence = lstm_head_.Backward(grad_output);
  Tensor grad_features = apots::tensor::Transpose12(grad_sequence);
  const size_t n = grad_features.dim(0);
  grad_features = grad_features.Reshape(
      {n, conv_channels_, num_rows_, alpha_});
  Tensor grad_image = conv_.Backward(grad_features);
  return grad_image.Reshape({n, num_rows_, alpha_});
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

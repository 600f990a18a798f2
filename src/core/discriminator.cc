#include "core/discriminator.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/dense.h"
#include "util/string_util.h"

namespace apots::core {

DiscriminatorHparams DiscriminatorHparams::Scaled(size_t divisor) {
  DiscriminatorHparams hparams;
  for (size_t& w : hparams.hidden) w = std::max<size_t>(4, w / divisor);
  return hparams;
}

Discriminator::Discriminator(const DiscriminatorHparams& hparams,
                             size_t alpha, size_t context_width,
                             apots::Rng* rng)
    : alpha_(alpha), context_width_(context_width) {
  size_t width = alpha + context_width;
  for (size_t hidden : hparams.hidden) {
    net_.Emplace<apots::nn::Dense>(width, hidden, rng,
                                   apots::nn::Init::kHeNormal);
    net_.Emplace<apots::nn::LeakyRelu>(hparams.leaky_slope);
    width = hidden;
  }
  // Fifth FC layer: the logit head.
  net_.Emplace<apots::nn::Dense>(width, 1, rng,
                                 apots::nn::Init::kXavierUniform);
}

Tensor Discriminator::Forward(const Tensor& sequences,
                              const Tensor& context) {
  APOTS_CHECK_EQ(sequences.rank(), 2u);
  APOTS_CHECK_EQ(sequences.dim(1), alpha_);
  const size_t batch = sequences.dim(0);
  ws_.Reset();
  Tensor* input = ws_.Acquire({batch, alpha_ + context_width_});
  for (size_t n = 0; n < batch; ++n) {
    float* dst = input->data() + n * (alpha_ + context_width_);
    std::copy(sequences.data() + n * alpha_,
              sequences.data() + (n + 1) * alpha_, dst);
    if (context_width_ > 0) {
      APOTS_CHECK_EQ(context.rank(), 2u);
      APOTS_CHECK_EQ(context.dim(0), batch);
      APOTS_CHECK_EQ(context.dim(1), context_width_);
      std::copy(context.data() + n * context_width_,
                context.data() + (n + 1) * context_width_, dst + alpha_);
    }
  }
  return *net_.RecordForward(*input, &ws_);
}

Tensor Discriminator::Backward(const Tensor& grad_logits) {
  Tensor grad_input = net_.Backward(grad_logits);
  const size_t batch = grad_input.dim(0);
  Tensor grad_sequences({batch, alpha_});
  for (size_t n = 0; n < batch; ++n) {
    std::copy(grad_input.data() + n * (alpha_ + context_width_),
              grad_input.data() + n * (alpha_ + context_width_) + alpha_,
              grad_sequences.data() + n * alpha_);
  }
  return grad_sequences;
}

std::vector<Parameter*> Discriminator::Parameters() {
  return net_.Parameters();
}

std::string Discriminator::Name() const {
  return apots::StrFormat("Discriminator(alpha=%zu, ctx=%zu)", alpha_,
                          context_width_);
}

}  // namespace apots::core

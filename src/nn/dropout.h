#ifndef APOTS_NN_DROPOUT_H_
#define APOTS_NN_DROPOUT_H_

#include <string>

#include "nn/module.h"
#include "util/rng.h"

namespace apots::nn {

/// Inverted dropout: during training each unit is zeroed with probability
/// `rate` and survivors are scaled by 1/(1-rate); at inference it is the
/// identity. The RNG is owned by the caller so whole-model determinism is
/// controlled from one seed.
class Dropout : public Layer {
 public:
  Dropout(float rate, apots::Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  const Tensor* Forward(const Tensor& input, bool training,
                        tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;

 private:
  float rate_;
  apots::Rng* rng_;  // not owned
  Tensor mask_;
  bool mask_valid_ = false;
};

}  // namespace apots::nn

#endif  // APOTS_NN_DROPOUT_H_

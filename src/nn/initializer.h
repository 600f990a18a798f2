#ifndef APOTS_NN_INITIALIZER_H_
#define APOTS_NN_INITIALIZER_H_

#include "tensor/tensor.h"
#include "util/rng.h"

namespace apots::nn {

/// Weight initialization schemes.
enum class Init {
  kZeros,
  kXavierUniform,  ///< Glorot: U(-sqrt(6/(fan_in+fan_out)), +)
  kHeNormal,       ///< Kaiming: N(0, sqrt(2/fan_in)) — for ReLU stacks
  kOrthogonalish,  ///< scaled normal used for recurrent kernels
};

/// Initializes `t` in place. `fan_in`/`fan_out` describe the layer's
/// connectivity (for Dense: input/output width; for a convolution:
/// in_channels*kh*kw / out_channels*kh*kw).
void Initialize(apots::tensor::Tensor* t, Init scheme, size_t fan_in,
                size_t fan_out, apots::Rng* rng);

}  // namespace apots::nn

#endif  // APOTS_NN_INITIALIZER_H_

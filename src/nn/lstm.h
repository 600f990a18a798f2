#ifndef APOTS_NN_LSTM_H_
#define APOTS_NN_LSTM_H_

#include <string>
#include <vector>

#include "nn/initializer.h"
#include "nn/module.h"
#include "util/rng.h"

namespace apots::nn {

/// Single-layer LSTM (Hochreiter & Schmidhuber '97) with full
/// backpropagation through time. Input is [batch, time, features]; output
/// is [batch, time, hidden] when `return_sequences` (for stacking LSTM
/// layers) or [batch, hidden] (the last hidden state) otherwise.
///
/// Gates are packed in one [*, 4*hidden] matrix in the order
/// input / forget / candidate / output. The forget-gate bias is initialized
/// to 1, the standard trick for gradient flow early in training.
class Lstm : public Layer {
 public:
  Lstm(size_t input_size, size_t hidden_size, bool return_sequences,
       apots::Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  const Tensor* Forward(const Tensor& input, bool training,
                        tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(tensor::QuantMode mode) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  size_t hidden_size() const { return hidden_size_; }

 private:
  size_t input_size_;
  size_t hidden_size_;
  bool return_sequences_;

  Parameter weight_x_;  ///< [input, 4*hidden]
  Parameter weight_h_;  ///< [hidden, 4*hidden]
  Parameter bias_;      ///< [4*hidden]
  // Packed gate-matmul weights for reduced-precision inference; consulted
  // only by the workspace inference Forward (see Layer::PrepareQuantized).
  tensor::QuantMode quant_mode_ = tensor::QuantMode::kOff;
  tensor::Int8Matrix int8_wx_, int8_wh_;
  tensor::Fp16Matrix fp16_wx_, fp16_wh_;

  // Per-timestep caches for BPTT.
  struct StepCache {
    Tensor x;        ///< [batch, input]
    Tensor h_prev;   ///< [batch, hidden]
    Tensor c_prev;   ///< [batch, hidden]
    Tensor gates;    ///< [batch, 4*hidden], post-activation (i,f,g,o)
    Tensor tanh_c;   ///< [batch, hidden]
  };
  std::vector<StepCache> steps_;
  size_t cached_batch_ = 0;
  size_t cached_time_ = 0;
};

}  // namespace apots::nn

#endif  // APOTS_NN_LSTM_H_

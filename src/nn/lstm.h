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

  const Tensor* Forward(const Tensor& input,
                        tensor::Workspace* ws) const override {
    return Run(input, ws, nullptr);
  }
  const Tensor* RecordForward(const Tensor& input,
                              tensor::Workspace* ws) override {
    return Run(input, ws, &record_);
  }
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(tensor::QuantMode mode) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  size_t hidden_size() const { return hidden_size_; }

 private:
  /// What BPTT reads, all in the recorded forward's workspace. Step t reads
  /// h[t] and c[t] (h[0] and c[0] are the zero initial state) and writes
  /// h[t + 1] and c[t + 1], its activated gates act[t] ([batch, 4*hidden],
  /// i|f|g|o) and tanh_c[t]. Backward slices x_t from `input` again.
  struct Record {
    RecordStamp stamp;
    const Tensor* input = nullptr;  ///< [batch, time, input]
    std::vector<Tensor*> h, c, act, tanh_c;
  };

  /// The forward body; `record` is null for inference.
  const Tensor* Run(const Tensor& input, tensor::Workspace* ws,
                    Record* record) const;

  size_t input_size_;
  size_t hidden_size_;
  bool return_sequences_;

  Parameter weight_x_;  ///< [input, 4*hidden]
  Parameter weight_h_;  ///< [hidden, 4*hidden]
  Parameter bias_;      ///< [4*hidden]
  // Packed gate-matmul weights for reduced-precision inference; read only
  // by the unrecorded Forward (see Layer::PrepareQuantized).
  tensor::QuantMode quant_mode_ = tensor::QuantMode::kOff;
  tensor::Int8Matrix int8_wx_, int8_wh_;
  tensor::Fp16Matrix fp16_wx_, fp16_wh_;

  Record record_;
};

}  // namespace apots::nn

#endif  // APOTS_NN_LSTM_H_

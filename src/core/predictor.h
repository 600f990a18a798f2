#ifndef APOTS_CORE_PREDICTOR_H_
#define APOTS_CORE_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/sequential.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace apots::core {

using apots::nn::Parameter;
using apots::tensor::Tensor;

/// The four predictor families evaluated in the paper (Section IV-B).
enum class PredictorType {
  kFc,      ///< F: fully connected
  kLstm,    ///< L: stacked LSTM
  kCnn,     ///< C: convolutional network on the speed matrix (Eq. 6)
  kHybrid,  ///< H: CNN feature extractor + LSTM head (LC-RNN style)
};

const char* PredictorTypeName(PredictorType type);   ///< "F", "L", "C", "H"
const char* PredictorTypeLabel(PredictorType type);  ///< "FC", "LSTM", ...

/// Architecture hyper-parameters (Table I). `Paper()` returns the grid the
/// paper reports; `Scaled(divisor)` shrinks every width by `divisor`
/// (minimum 4 units) for CPU-friendly runs with the same shape ratios.
struct PredictorHparams {
  PredictorType type = PredictorType::kFc;
  std::vector<size_t> fc_hidden = {512, 128, 256, 64};
  std::vector<size_t> lstm_hidden = {512, 512};
  std::vector<size_t> cnn_channels = {128, 32, 64};
  /// Kernel sizes per conv layer: Table I lists 3x3, 1x1, 3x3.
  std::vector<size_t> cnn_kernels = {3, 1, 3};
  float learning_rate = 0.001f;

  static PredictorHparams Paper(PredictorType type);
  static PredictorHparams Scaled(PredictorType type, size_t divisor);
};

/// A traffic-speed predictor P: maps a batch of canonical feature matrices
/// [batch, rows, alpha] to scaled speed predictions [batch, 1]. A family
/// is its layer stack (`net_`) and the layout of the stack's input
/// (NetInput); the forward body is the stack's, for serving and training
/// alike.
class Predictor {
 public:
  virtual ~Predictor() = default;

  Predictor(const Predictor&) = delete;
  Predictor& operator=(const Predictor&) = delete;

  /// Training forward: runs fp32 whatever the precision, and records in the
  /// predictor's own training workspace (reset here) what Backward reads,
  /// the batch's layout included, so `batch` need not outlive the call.
  /// Also the fp32 reference the serving forward is tested against.
  /// `training` is ignored.
  Tensor Forward(const Tensor& batch, bool training);

  /// Serving forward (see nn::Layer::Forward) at the precision of
  /// PrepareQuantized: borrows all activations from `ws` and mutates no
  /// predictor state, so concurrent forwards on a shared predictor are
  /// safe. `training` must be false (checked).
  const Tensor* Forward(const Tensor& batch, bool training,
                        apots::tensor::Workspace* ws) const;

  /// `grad_output` is [batch, 1]; returns the gradient w.r.t. the input
  /// batch (usually discarded) and accumulates parameter gradients. Reads
  /// the last training Forward's record.
  Tensor Backward(const Tensor& grad_output);

  /// Packs the predictor's frozen weights for reduced-precision inference
  /// (see nn::Layer::PrepareQuantized): only the serving forward reads the
  /// packed copies, training always runs fp32, and the packed copies
  /// snapshot the weights at call time — call again after training steps,
  /// or with kOff to return to exact fp32. Conv layers have no quantized
  /// path and stay fp32 in every mode. The owning ApotsModel is the only
  /// caller, so every runtime on a predictor serves the model's precision.
  void PrepareQuantized(apots::tensor::QuantMode mode) {
    net_.PrepareQuantized(mode);
  }

  std::vector<Parameter*> Parameters() { return net_.Parameters(); }
  virtual PredictorType type() const = 0;
  virtual std::string Name() const = 0;

  /// The workspace training forwards record into; it stops growing once
  /// it has seen each batch size.
  const apots::tensor::Workspace& training_workspace() const {
    return training_ws_;
  }

 protected:
  Predictor(size_t num_rows, size_t alpha)
      : num_rows_(num_rows), alpha_(alpha) {}

  /// Lays `batch` out in `ws` as `net_`'s input. The default passes
  /// `batch` on: a conv trunk gathers it into the workspace itself.
  virtual const Tensor* NetInput(const Tensor& batch,
                                 apots::tensor::Workspace* ws) const {
    return &batch;
  }
  /// `net_`'s input gradient as the batch's [batch, rows, alpha]. The
  /// default is the identity.
  virtual Tensor BatchGradient(Tensor net_grad) const { return net_grad; }

  size_t num_rows_;
  size_t alpha_;
  apots::nn::Sequential net_;

 private:
  /// Checks that `batch` is [batch, rows, alpha]; returns NetInput.
  const Tensor* Input(const Tensor& batch,
                      apots::tensor::Workspace* ws) const;

  apots::tensor::Workspace training_ws_;
};

/// Factory: builds the predictor for `hparams` over inputs with
/// `num_rows` feature rows and window length `alpha`.
std::unique_ptr<Predictor> MakePredictor(const PredictorHparams& hparams,
                                         size_t num_rows, size_t alpha,
                                         apots::Rng* rng);

}  // namespace apots::core

#endif  // APOTS_CORE_PREDICTOR_H_

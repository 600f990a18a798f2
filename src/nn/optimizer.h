#ifndef APOTS_NN_OPTIMIZER_H_
#define APOTS_NN_OPTIMIZER_H_

#include <unordered_map>
#include <vector>

#include "nn/module.h"

namespace apots::nn {

/// Adam (Kingma & Ba), the optimizer of every predictor, discriminator
/// and trainer. Per-parameter first/second moment state keyed by
/// parameter pointer; the step counter is global to the optimizer.
class Adam {
 public:
  explicit Adam(float learning_rate, float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Updates every parameter in `params` from its `grad`.
  void Step(const std::vector<Parameter*>& params);

  /// Step followed by ZeroAllGrads.
  void StepAndZero(const std::vector<Parameter*>& params);

  /// Discards the moments and the step counter. Used when training rolls
  /// back to a checkpoint: stale moments describe the diverged trajectory,
  /// not the restored weights.
  void ResetState() {
    moments_.clear();
    step_count_ = 0;
  }

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }

 private:
  struct Moments {
    Tensor m;
    Tensor v;
  };
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  int64_t step_count_ = 0;
  std::unordered_map<Parameter*, Moments> moments_;
};

}  // namespace apots::nn

#endif  // APOTS_NN_OPTIMIZER_H_

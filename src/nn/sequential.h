#ifndef APOTS_NN_SEQUENTIAL_H_
#define APOTS_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace apots::nn {

/// An ordered stack of layers executed front-to-back in Forward and
/// back-to-front in Backward. Owns its layers.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer (takes ownership). Returns a raw observer pointer.
  Layer* Add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs L in place.
  template <typename L, typename... Args>
  L* Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    Add(std::move(layer));
    return raw;
  }

  const Tensor* Forward(const Tensor& input,
                        tensor::Workspace* ws) const override;
  const Tensor* RecordForward(const Tensor& input,
                              tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(tensor::QuantMode mode) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  size_t NumLayers() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_[i].get(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace apots::nn

#endif  // APOTS_NN_SEQUENTIAL_H_

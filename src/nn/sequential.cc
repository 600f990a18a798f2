#include "nn/sequential.h"

namespace apots::nn {

Layer* Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

const Tensor* Sequential::Forward(const Tensor& input,
                                  tensor::Workspace* ws) const {
  const Tensor* current = &input;
  for (const auto& layer : layers_) current = layer->Forward(*current, ws);
  return current;
}

const Tensor* Sequential::RecordForward(const Tensor& input,
                                        tensor::Workspace* ws) {
  const Tensor* current = &input;
  for (auto& layer : layers_) current = layer->RecordForward(*current, ws);
  return current;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor current = grad_output;
  for (size_t i = layers_.size(); i-- > 0;) {
    current = layers_[i]->Backward(current);
  }
  return current;
}

void Sequential::PrepareQuantized(tensor::QuantMode mode) {
  for (auto& layer : layers_) layer->PrepareQuantized(mode);
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::string Sequential::Name() const {
  std::string out = "Sequential[";
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out += ", ";
    out += layers_[i]->Name();
  }
  out += "]";
  return out;
}

}  // namespace apots::nn

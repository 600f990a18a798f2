#include "nn/dense.h"

#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::nn {

using apots::tensor::Tensor;

Dense::Dense(size_t in_features, size_t out_features, apots::Rng* rng,
             Init init)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("dense.weight", Tensor({in_features, out_features})),
      bias_("dense.bias", Tensor({out_features})) {
  Initialize(&weight_.value, init, in_features, out_features, rng);
  // Bias starts at zero regardless of scheme.
}

const Tensor* Dense::Run(const Tensor& input, tensor::Workspace* ws,
                         InputRecord* record) const {
  APOTS_CHECK_EQ(input.rank(), 2u);
  APOTS_CHECK_EQ(input.cols(), in_features_);
  Tensor* out = ws->Acquire({input.rows(), out_features_});
  switch (record != nullptr ? tensor::QuantMode::kOff : quant_mode_) {
    case tensor::QuantMode::kInt8:
      apots::tensor::Int8MatmulInto(input, int8_weight_, out, ws);
      break;
    case tensor::QuantMode::kFp16:
      apots::tensor::Fp16MatmulInto(input, fp16_weight_, out);
      break;
    case tensor::QuantMode::kOff:
      apots::tensor::MatmulInto(input, weight_.value, out);
      break;
  }
  apots::tensor::AddRowBias(out, bias_.value);
  if (record != nullptr) {
    record->stamp.Set(ws);
    record->input = &input;
  }
  return out;
}

void Dense::PrepareQuantized(tensor::QuantMode mode) {
  quant_mode_ = mode;
  int8_weight_ = mode == tensor::QuantMode::kInt8
                     ? apots::tensor::PackInt8Weights(weight_.value)
                     : tensor::Int8Matrix{};
  fp16_weight_ = mode == tensor::QuantMode::kFp16
                     ? apots::tensor::PackFp16Weights(weight_.value)
                     : tensor::Fp16Matrix{};
}

Tensor Dense::Backward(const Tensor& grad_output) {
  tensor::Workspace* ws = record_.stamp.Check(Name());
  const Tensor& input = *record_.input;
  APOTS_CHECK_EQ(grad_output.rank(), 2u);
  APOTS_CHECK_EQ(grad_output.cols(), out_features_);
  APOTS_CHECK_EQ(grad_output.rows(), input.rows());
  namespace ops = apots::tensor;
  // dW += x^T dy ; db += column sums of dy ; dx = dy W^T. The prepared
  // operands are scratch after the record, rewound on return.
  const size_t mark = ws->slots_in_use();
  const ops::PreparedRhs dy =
      ops::PrepareSumRhs(ops::StridedMatrix::Of(grad_output), ws->Acquire({0}));
  ops::AddProduct(ops::StridedMatrix::TransposeOf(input), dy, &weight_.grad);
  ops::AddProduct(ops::StridedMatrix::Ones(input.rows()), dy, &bias_.grad);
  Tensor grad_input({input.rows(), in_features_});
  ops::MatmulInto(grad_output,
                  ops::PrepareRhsTransposed(weight_.value, input.rows(),
                                            ws->Acquire({0})),
                  &grad_input);
  ws->Rewind(mark);
  return grad_input;
}

std::vector<Parameter*> Dense::Parameters() { return {&weight_, &bias_}; }

std::string Dense::Name() const {
  return apots::StrFormat("Dense(%zu -> %zu)", in_features_, out_features_);
}

}  // namespace apots::nn

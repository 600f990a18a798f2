#include "nn/gradient_check.h"

#include <cmath>

#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace apots::nn {

namespace {

// Weighted sum of a forward pass (the scalar "loss" used by the checker).
double WeightedSum(const Tensor& output, const Tensor& weights) {
  APOTS_CHECK(output.SameShape(weights));
  double acc = 0.0;
  for (size_t i = 0; i < output.size(); ++i) {
    acc += static_cast<double>(output[i]) * weights[i];
  }
  return acc;
}

void Accumulate(GradCheckResult* result, double analytic, double numeric) {
  const double abs_err = std::fabs(analytic - numeric);
  const double denom =
      std::max(1e-4, std::max(std::fabs(analytic), std::fabs(numeric)));
  result->max_abs_error = std::max(result->max_abs_error, abs_err);
  result->max_rel_error = std::max(result->max_rel_error, abs_err / denom);
  ++result->checked;
}

}  // namespace

GradCheckResult CheckLayerGradients(Layer* layer, const Tensor& input,
                                    const Tensor& loss_weights,
                                    double epsilon, size_t stride) {
  GradCheckResult result;
  if (stride == 0) stride = 1;

  // Analytic pass: recorded forward, then backward with dL/dout =
  // loss_weights.
  for (Parameter* p : layer->Parameters()) p->ZeroGrad();
  tensor::Workspace ws;
  const Tensor* output = layer->RecordForward(input, &ws);
  APOTS_CHECK(output->SameShape(loss_weights));
  Tensor grad_input = layer->Backward(loss_weights);
  APOTS_CHECK(grad_input.SameShape(input));

  // The numeric passes run the inference forward.
  const auto loss = [&](const Tensor& x) {
    ws.Reset();
    return WeightedSum(*layer->Forward(x, &ws), loss_weights);
  };

  // Numeric input gradient.
  Tensor perturbed = input;
  for (size_t i = 0; i < input.size(); i += stride) {
    const float saved = perturbed[i];
    perturbed[i] = saved + static_cast<float>(epsilon);
    const double plus = loss(perturbed);
    perturbed[i] = saved - static_cast<float>(epsilon);
    const double minus = loss(perturbed);
    perturbed[i] = saved;
    Accumulate(&result, grad_input[i], (plus - minus) / (2.0 * epsilon));
  }

  // Numeric parameter gradients, against the grads accumulated above.
  for (Parameter* p : layer->Parameters()) {
    for (size_t i = 0; i < p->value.size(); i += stride) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(epsilon);
      const double plus = loss(input);
      p->value[i] = saved - static_cast<float>(epsilon);
      const double minus = loss(input);
      p->value[i] = saved;
      Accumulate(&result, p->grad[i], (plus - minus) / (2.0 * epsilon));
    }
  }
  return result;
}

GradCheckResult CheckFunctionGradient(
    const std::function<double(const Tensor&)>& f, const Tensor& point,
    const Tensor& analytic, double epsilon, size_t stride) {
  APOTS_CHECK(point.SameShape(analytic));
  GradCheckResult result;
  if (stride == 0) stride = 1;
  Tensor perturbed = point;
  for (size_t i = 0; i < point.size(); i += stride) {
    const float saved = perturbed[i];
    perturbed[i] = saved + static_cast<float>(epsilon);
    const double plus = f(perturbed);
    perturbed[i] = saved - static_cast<float>(epsilon);
    const double minus = f(perturbed);
    perturbed[i] = saved;
    Accumulate(&result, analytic[i], (plus - minus) / (2.0 * epsilon));
  }
  return result;
}

}  // namespace apots::nn

// The step-by-step LSTM and dense layer that nn::Lstm and nn::Dense
// compute, written as test code: the bitwise oracle of their forward and
// backward passes.
//
// The LSTM runs its steps one at a time: the gate products are the
// reference kernels' x_t W_x and h W_h, and the cell is tensor::LstmCell.
// Backward walks the steps in descending order with the scalar
// gate-gradient loop below, whose multiplies, subtracts and adds are
// unfused (this header's users build with -ffp-contract=off). Each step
// adds its weight products x_t^T dgates and h_t^T dgates into the weight
// gradients, and its row-ascending column sum of dgates into the bias
// gradient, in step order; dx and the recurrent dh are dgates W^T. The
// dense layer is one such block. The products are the reference kernels,
// which the dispatched kernels match bit for bit.

#ifndef APOTS_TESTS_LSTM_REFERENCE_H_
#define APOTS_TESTS_LSTM_REFERENCE_H_

#include <algorithm>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace apots::lstm_reference {

using apots::tensor::Tensor;

/// grad[i] += product[i]: a gradient accumulates each block as it comes.
inline void AddInto(Tensor* grad, const Tensor& product) {
  for (size_t i = 0; i < grad->size(); ++i) (*grad)[i] += product[i];
}

/// Adds the row-ascending column sum of `m` ([rows, n]) into `grad`.
inline void AddColumnSums(Tensor* grad, const Tensor& m) {
  Tensor sum({m.cols()});
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t j = 0; j < m.cols(); ++j) sum[j] += m.At(r, j);
  }
  AddInto(grad, sum);
}

struct LstmWeights {
  const Tensor* wx;    // [input, 4*hidden]
  const Tensor* wh;    // [hidden, 4*hidden]
  const Tensor* bias;  // [4*hidden]
};

/// The layer's output and input gradient for one batch. The parameter
/// gradients accumulate into the caller's tensors.
struct LstmResult {
  Tensor output;      // [batch, time, hidden] or [batch, hidden]
  Tensor grad_input;  // [batch, time, input]
};

/// Runs the LSTM over `input` ([batch, time, input]) from a zero state,
/// then backpropagates `grad_output` through time, adding the weight and
/// bias gradients into grad_wx, grad_wh and grad_bias.
inline LstmResult RunLstm(const LstmWeights& w, bool return_sequences,
                          const Tensor& input, const Tensor& grad_output,
                          Tensor* grad_wx, Tensor* grad_wh,
                          Tensor* grad_bias) {
  namespace ref = apots::tensor::reference;
  const size_t batch = input.dim(0), time = input.dim(1), in = input.dim(2);
  const size_t H = w.wh->rows();
  std::vector<Tensor> xs, hs, cs, acts, tanh_cs;
  hs.push_back(Tensor({batch, H}));
  cs.push_back(Tensor({batch, H}));
  LstmResult result;
  result.output = return_sequences ? Tensor({batch, time, H})
                                   : Tensor({batch, H});
  for (size_t t = 0; t < time; ++t) {
    Tensor x({batch, in});
    for (size_t n = 0; n < batch; ++n) {
      const float* src = input.data() + (n * time + t) * in;
      std::copy(src, src + in, x.data() + n * in);
    }
    const Tensor gates_x = ref::Matmul(x, *w.wx);
    const Tensor gates_h = ref::Matmul(hs.back(), *w.wh);
    Tensor c({batch, H}), h({batch, H}), act({batch, 4 * H}),
        tanh_c({batch, H});
    apots::tensor::LstmCell(gates_x, gates_h, *w.bias, cs.back(), &c, &h,
                            &act, &tanh_c);
    if (return_sequences) {
      for (size_t n = 0; n < batch; ++n) {
        std::copy(h.data() + n * H, h.data() + (n + 1) * H,
                  result.output.data() + (n * time + t) * H);
      }
    }
    xs.push_back(std::move(x));
    hs.push_back(std::move(h));
    cs.push_back(std::move(c));
    acts.push_back(std::move(act));
    tanh_cs.push_back(std::move(tanh_c));
  }
  if (!return_sequences) result.output = hs.back();

  result.grad_input = Tensor({batch, time, in});
  Tensor dh_next({batch, H}), dc_next({batch, H});
  for (size_t t = time; t-- > 0;) {
    // dh = the gradient from step t + 1, plus this step's output gradient.
    Tensor dh = dh_next;
    for (size_t n = 0; n < batch; ++n) {
      for (size_t j = 0; j < H; ++j) {
        if (return_sequences) {
          dh.At(n, j) += grad_output[(n * time + t) * H + j];
        } else if (t == time - 1) {
          dh.At(n, j) += grad_output.At(n, j);
        }
      }
    }
    Tensor dgates({batch, 4 * H}), dc_prev({batch, H});
    for (size_t n = 0; n < batch; ++n) {
      for (size_t j = 0; j < H; ++j) {
        const float i_gate = acts[t].At(n, j);
        const float f_gate = acts[t].At(n, H + j);
        const float g_cand = acts[t].At(n, 2 * H + j);
        const float o_gate = acts[t].At(n, 3 * H + j);
        const float tc = tanh_cs[t].At(n, j);
        const float dhj = dh.At(n, j);
        const float dc = dhj * o_gate * (1.0f - tc * tc) + dc_next.At(n, j);
        const float do_gate = dhj * tc;
        const float di = dc * g_cand;
        const float df = dc * cs[t].At(n, j);
        const float dg_cand = dc * i_gate;
        dc_prev.At(n, j) = dc * f_gate;
        dgates.At(n, j) = di * i_gate * (1.0f - i_gate);
        dgates.At(n, H + j) = df * f_gate * (1.0f - f_gate);
        dgates.At(n, 2 * H + j) = dg_cand * (1.0f - g_cand * g_cand);
        dgates.At(n, 3 * H + j) = do_gate * o_gate * (1.0f - o_gate);
      }
    }
    AddInto(grad_wx, ref::MatmulTransposeA(xs[t], dgates));
    AddInto(grad_wh, ref::MatmulTransposeA(hs[t], dgates));
    AddColumnSums(grad_bias, dgates);
    const Tensor dx = ref::MatmulTransposeB(dgates, *w.wx);
    for (size_t n = 0; n < batch; ++n) {
      std::copy(dx.data() + n * in, dx.data() + (n + 1) * in,
                result.grad_input.data() + (n * time + t) * in);
    }
    dh_next = ref::MatmulTransposeB(dgates, *w.wh);
    dc_next = std::move(dc_prev);
  }
  return result;
}

/// y = x W + b, then dW += x^T dy, db += the column sums of dy, and
/// dx = dy W^T. Returns {y, dx}.
inline std::vector<Tensor> RunDense(const Tensor& weight, const Tensor& bias,
                                    const Tensor& input,
                                    const Tensor& grad_output,
                                    Tensor* grad_weight, Tensor* grad_bias) {
  namespace ref = apots::tensor::reference;
  Tensor output = ref::Matmul(input, weight);
  for (size_t r = 0; r < output.rows(); ++r) {
    for (size_t j = 0; j < output.cols(); ++j) output.At(r, j) += bias[j];
  }
  AddInto(grad_weight, ref::MatmulTransposeA(input, grad_output));
  AddColumnSums(grad_bias, grad_output);
  return {output, ref::MatmulTransposeB(grad_output, weight)};
}

}  // namespace apots::lstm_reference

#endif  // APOTS_TESTS_LSTM_REFERENCE_H_

#include "nn/lstm.h"

#include <algorithm>

#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::nn {

namespace ops = apots::tensor;

Lstm::Lstm(size_t input_size, size_t hidden_size, bool return_sequences,
           apots::Rng* rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      return_sequences_(return_sequences),
      weight_x_("lstm.weight_x", Tensor({input_size, 4 * hidden_size})),
      weight_h_("lstm.weight_h", Tensor({hidden_size, 4 * hidden_size})),
      bias_("lstm.bias", Tensor({4 * hidden_size})) {
  Initialize(&weight_x_.value, Init::kXavierUniform, input_size,
             4 * hidden_size, rng);
  Initialize(&weight_h_.value, Init::kOrthogonalish, hidden_size,
             4 * hidden_size, rng);
  // Forget-gate bias = 1 (slots [hidden, 2*hidden)).
  for (size_t j = hidden_size; j < 2 * hidden_size; ++j) {
    bias_.value[j] = 1.0f;
  }
}

Tensor Lstm::Forward(const Tensor& input, bool training) {
  APOTS_CHECK_EQ(input.rank(), 3u);
  APOTS_CHECK_EQ(input.dim(2), input_size_);
  const size_t batch = input.dim(0);
  const size_t time = input.dim(1);
  cached_batch_ = batch;
  cached_time_ = time;
  steps_.clear();
  steps_.reserve(time);

  Tensor h = Tensor::Zeros({batch, hidden_size_});
  Tensor c = Tensor::Zeros({batch, hidden_size_});
  Tensor sequence_out;
  if (return_sequences_) {
    sequence_out = Tensor({batch, time, hidden_size_});
  }
  // The gate weights are prepared once for the call's 2 * time products.
  Tensor wx_storage, wh_storage;
  const ops::PreparedRhs wx =
      ops::PrepareRhs(weight_x_.value, batch, &wx_storage);
  const ops::PreparedRhs wh =
      ops::PrepareRhs(weight_h_.value, batch, &wh_storage);
  Tensor gates_h({batch, 4 * hidden_size_});

  for (size_t t = 0; t < time; ++t) {
    StepCache step;
    // Slice x_t: [batch, input].
    step.x = Tensor({batch, input_size_});
    for (size_t n = 0; n < batch; ++n) {
      const float* src = input.data() + (n * time + t) * input_size_;
      std::copy(src, src + input_size_, step.x.data() + n * input_size_);
    }

    // The cell activates the gates in place: [i | f | g | o].
    step.gates = Tensor({batch, 4 * hidden_size_});
    ops::MatmulInto(step.x, wx, &step.gates);
    ops::MatmulInto(h, wh, &gates_h);
    step.tanh_c = Tensor({batch, hidden_size_});
    Tensor new_c({batch, hidden_size_});
    Tensor new_h({batch, hidden_size_});
    ops::LstmCell(step.gates, gates_h, bias_.value, c, &new_c, &new_h,
                  &step.gates, &step.tanh_c);
    step.h_prev = std::move(h);
    step.c_prev = std::move(c);
    c = std::move(new_c);
    h = std::move(new_h);

    if (return_sequences_) {
      for (size_t n = 0; n < batch; ++n) {
        std::copy(h.data() + n * hidden_size_,
                  h.data() + (n + 1) * hidden_size_,
                  sequence_out.data() + (n * time + t) * hidden_size_);
      }
    }
    steps_.push_back(std::move(step));
  }
  return return_sequences_ ? sequence_out : h;
}

const Tensor* Lstm::Forward(const Tensor& input, bool training,
                            tensor::Workspace* ws) const {
  APOTS_CHECK(!training);
  APOTS_CHECK_EQ(input.rank(), 3u);
  APOTS_CHECK_EQ(input.dim(2), input_size_);
  const size_t batch = input.dim(0);
  const size_t time = input.dim(1);
  const size_t H = hidden_size_;

  // All state lives in the arena: no StepCache (backward-only) and no
  // member writes, so concurrent inference forwards are safe. The products
  // and the cell kernel are the allocating Forward's, so results are
  // bitwise identical.
  Tensor* h = ws->Acquire({batch, H});
  Tensor* sequence_out =
      return_sequences_ ? ws->Acquire({batch, time, H}) : nullptr;
  // The rest is scratch, rewound on return so the next layer reuses it,
  // the packed weights included.
  const size_t mark = ws->slots_in_use();
  Tensor* c = ws->Acquire({batch, H});
  h->Fill(0.0f);
  c->Fill(0.0f);
  Tensor* x_t = ws->Acquire({batch, input_size_});
  Tensor* gates = ws->Acquire({batch, 4 * H});
  Tensor* gates_h = ws->Acquire({batch, 4 * H});
  ops::PreparedRhs wx, wh;
  if (quant_mode_ == tensor::QuantMode::kOff) {
    wx = ops::PrepareRhs(weight_x_.value, batch, ws->Acquire({0}));
    wh = ops::PrepareRhs(weight_h_.value, batch, ws->Acquire({0}));
  }

  for (size_t t = 0; t < time; ++t) {
    // Slice x_t: [batch, input].
    for (size_t n = 0; n < batch; ++n) {
      const float* src = input.data() + (n * time + t) * input_size_;
      std::copy(src, src + input_size_, x_t->data() + n * input_size_);
    }
    switch (quant_mode_) {
      case tensor::QuantMode::kInt8:
        ops::Int8MatmulInto(*x_t, int8_wx_, gates, ws);
        ops::Int8MatmulInto(*h, int8_wh_, gates_h, ws);
        break;
      case tensor::QuantMode::kFp16:
        ops::Fp16MatmulInto(*x_t, fp16_wx_, gates);
        ops::Fp16MatmulInto(*h, fp16_wh_, gates_h);
        break;
      case tensor::QuantMode::kOff:
        ops::MatmulInto(*x_t, wx, gates);
        ops::MatmulInto(*h, wh, gates_h);
        break;
    }
    // Updates h and c in place.
    ops::LstmCell(*gates, *gates_h, bias_.value, *c, c, h);
    if (return_sequences_) {
      for (size_t n = 0; n < batch; ++n) {
        std::copy(h->data() + n * H, h->data() + (n + 1) * H,
                  sequence_out->data() + (n * time + t) * H);
      }
    }
  }
  ws->Rewind(mark);
  return return_sequences_ ? sequence_out : h;
}

void Lstm::PrepareQuantized(tensor::QuantMode mode) {
  quant_mode_ = mode;
  const bool int8 = mode == tensor::QuantMode::kInt8;
  const bool fp16 = mode == tensor::QuantMode::kFp16;
  int8_wx_ = int8 ? ops::PackInt8Weights(weight_x_.value)
                  : tensor::Int8Matrix{};
  int8_wh_ = int8 ? ops::PackInt8Weights(weight_h_.value)
                  : tensor::Int8Matrix{};
  fp16_wx_ = fp16 ? ops::PackFp16Weights(weight_x_.value)
                  : tensor::Fp16Matrix{};
  fp16_wh_ = fp16 ? ops::PackFp16Weights(weight_h_.value)
                  : tensor::Fp16Matrix{};
}

Tensor Lstm::Backward(const Tensor& grad_output) {
  const size_t batch = cached_batch_;
  const size_t time = cached_time_;
  const size_t H = hidden_size_;
  if (return_sequences_) {
    APOTS_CHECK_EQ(grad_output.rank(), 3u);
    APOTS_CHECK_EQ(grad_output.dim(1), time);
  } else {
    APOTS_CHECK_EQ(grad_output.rank(), 2u);
    APOTS_CHECK_EQ(grad_output.dim(1), H);
  }

  Tensor grad_input({batch, time, input_size_});
  Tensor dh_next = Tensor::Zeros({batch, H});
  Tensor dc_next = Tensor::Zeros({batch, H});
  // W_x^T and W_h^T are prepared once for the call's 2 * time products.
  Tensor wx_t_storage, wh_t_storage;
  const ops::PreparedRhs wx_t =
      ops::PrepareRhsTransposed(weight_x_.value, batch, &wx_t_storage);
  const ops::PreparedRhs wh_t =
      ops::PrepareRhsTransposed(weight_h_.value, batch, &wh_t_storage);
  Tensor dx({batch, input_size_});

  for (size_t t = time; t-- > 0;) {
    const StepCache& step = steps_[t];
    // dh at this step = incoming-from-future + slice of grad_output.
    Tensor dh = dh_next;
    if (return_sequences_) {
      for (size_t n = 0; n < batch; ++n) {
        const float* src = grad_output.data() + (n * time + t) * H;
        float* dst = dh.data() + n * H;
        for (size_t j = 0; j < H; ++j) dst[j] += src[j];
      }
    } else if (t == time - 1) {
      ops::AddInPlace(&dh, grad_output);
    }

    // Gate-level gradients, pre-activation: [batch, 4H].
    Tensor dgates({batch, 4 * H});
    Tensor dc_prev({batch, H});
    for (size_t n = 0; n < batch; ++n) {
      const float* g_row = step.gates.data() + n * 4 * H;
      const float* tc = step.tanh_c.data() + n * H;
      const float* cp = step.c_prev.data() + n * H;
      const float* dh_row = dh.data() + n * H;
      const float* dcn = dc_next.data() + n * H;
      float* dg = dgates.data() + n * 4 * H;
      float* dcp = dc_prev.data() + n * H;
      for (size_t j = 0; j < H; ++j) {
        const float i_gate = g_row[j];
        const float f_gate = g_row[H + j];
        const float g_cand = g_row[2 * H + j];
        const float o_gate = g_row[3 * H + j];
        // dc = dh * o * (1 - tanh(c)^2) + dc_from_future.
        const float dc = dh_row[j] * o_gate * (1.0f - tc[j] * tc[j]) + dcn[j];
        const float do_gate = dh_row[j] * tc[j];
        const float di = dc * g_cand;
        const float df = dc * cp[j];
        const float dg_cand = dc * i_gate;
        dcp[j] = dc * f_gate;
        // Through the activations to pre-activation space.
        dg[j] = di * i_gate * (1.0f - i_gate);
        dg[H + j] = df * f_gate * (1.0f - f_gate);
        dg[2 * H + j] = dg_cand * (1.0f - g_cand * g_cand);
        dg[3 * H + j] = do_gate * o_gate * (1.0f - o_gate);
      }
    }

    // Parameter gradients.
    ops::AddInPlace(&weight_x_.grad, ops::MatmulTransposeA(step.x, dgates));
    ops::AddInPlace(&weight_h_.grad,
                    ops::MatmulTransposeA(step.h_prev, dgates));
    ops::AddInPlace(&bias_.grad, ops::SumRows(dgates));

    // Input and recurrent gradients: dgates W_x^T and dgates W_h^T.
    ops::MatmulInto(dgates, wx_t, &dx);
    for (size_t n = 0; n < batch; ++n) {
      std::copy(dx.data() + n * input_size_, dx.data() + (n + 1) * input_size_,
                grad_input.data() + (n * time + t) * input_size_);
    }
    ops::MatmulInto(dgates, wh_t, &dh_next);
    dc_next = std::move(dc_prev);
  }
  return grad_input;
}

std::vector<Parameter*> Lstm::Parameters() {
  return {&weight_x_, &weight_h_, &bias_};
}

std::string Lstm::Name() const {
  return apots::StrFormat("Lstm(%zu -> %zu%s)", input_size_, hidden_size_,
                          return_sequences_ ? ", seq" : "");
}

}  // namespace apots::nn

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

const Tensor* Lstm::Run(const Tensor& input, tensor::Workspace* ws,
                        Record* record) const {
  APOTS_CHECK_EQ(input.rank(), 3u);
  APOTS_CHECK_EQ(input.dim(2), input_size_);
  const size_t batch = input.dim(0);
  const size_t time = input.dim(1);
  const size_t H = hidden_size_;
  // A recorded forward runs fp32 whatever the precision: Backward
  // differentiates the fp32 weights.
  const tensor::QuantMode mode =
      record != nullptr ? tensor::QuantMode::kOff : quant_mode_;

  Tensor* h = ws->Acquire({batch, H});
  Tensor* sequence_out =
      return_sequences_ ? ws->Acquire({batch, time, H}) : nullptr;
  // The rest is scratch, rewound on return so the next layer reuses it,
  // the packed weights included. A recorded forward keeps it all.
  const size_t mark = ws->slots_in_use();
  Tensor* c = ws->Acquire({batch, H});
  h->Fill(0.0f);
  c->Fill(0.0f);
  Tensor* x_t = ws->Acquire({batch, input_size_});
  Tensor* gates = record != nullptr ? nullptr : ws->Acquire({batch, 4 * H});
  Tensor* gates_h = ws->Acquire({batch, 4 * H});
  ops::PreparedRhs wx, wh;
  if (mode == tensor::QuantMode::kOff) {
    wx = ops::PrepareRhs(weight_x_.value, batch, ws->Acquire({0}));
    wh = ops::PrepareRhs(weight_h_.value, batch, ws->Acquire({0}));
  }
  if (record != nullptr) {
    record->stamp.Set(ws);
    record->input = &input;
    record->h.assign(1, h);
    record->c.assign(1, c);
    record->act.clear();
    record->tanh_c.clear();
  }

  for (size_t t = 0; t < time; ++t) {
    // Slice x_t: [batch, input].
    for (size_t n = 0; n < batch; ++n) {
      const float* src = input.data() + (n * time + t) * input_size_;
      std::copy(src, src + input_size_, x_t->data() + n * input_size_);
    }
    // Inference updates h and c in place. A recorded step writes its own
    // h, c, activated gates and tanh(c), which Backward reads.
    Tensor* act = gates;
    Tensor* tanh_c = nullptr;
    Tensor* h_next = h;
    Tensor* c_next = c;
    if (record != nullptr) {
      act = record->act.emplace_back(ws->Acquire({batch, 4 * H}));
      tanh_c = record->tanh_c.emplace_back(ws->Acquire({batch, H}));
      h_next = record->h.emplace_back(ws->Acquire({batch, H}));
      c_next = record->c.emplace_back(ws->Acquire({batch, H}));
    }
    switch (mode) {
      case tensor::QuantMode::kInt8:
        ops::Int8MatmulInto(*x_t, int8_wx_, act, ws);
        ops::Int8MatmulInto(*h, int8_wh_, gates_h, ws);
        break;
      case tensor::QuantMode::kFp16:
        ops::Fp16MatmulInto(*x_t, fp16_wx_, act);
        ops::Fp16MatmulInto(*h, fp16_wh_, gates_h);
        break;
      case tensor::QuantMode::kOff:
        ops::MatmulInto(*x_t, wx, act);
        ops::MatmulInto(*h, wh, gates_h);
        break;
    }
    // The cell activates the gates in place: [i | f | g | o].
    ops::LstmCell(*act, *gates_h, bias_.value, *c, c_next, h_next,
                  record != nullptr ? act : nullptr, tanh_c);
    h = h_next;
    c = c_next;
    if (return_sequences_) {
      for (size_t n = 0; n < batch; ++n) {
        std::copy(h->data() + n * H, h->data() + (n + 1) * H,
                  sequence_out->data() + (n * time + t) * H);
      }
    }
  }
  if (record == nullptr) ws->Rewind(mark);
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
  tensor::Workspace* ws = record_.stamp.Check(Name());
  const Tensor& input = *record_.input;
  const size_t batch = input.dim(0);
  const size_t time = input.dim(1);
  const size_t D = input_size_;
  const size_t H = hidden_size_;
  APOTS_CHECK(grad_output.shape() ==
              (return_sequences_ ? std::vector<size_t>{batch, time, H}
                                 : std::vector<size_t>{batch, H}))
      << Name() << ": the gradient's shape is not the recorded output's";

  // Scratch, after the record's slots, rewound on return.
  const size_t mark = ws->slots_in_use();
  Tensor* dh_next = ws->Acquire({batch, H});
  Tensor* dc = ws->Acquire({batch, H});
  dh_next->Fill(0.0f);
  dc->Fill(0.0f);
  Tensor* dgates = ws->Acquire({batch, 4 * H});
  Tensor* dx = ws->Acquire({batch, D});
  Tensor* dgates_panels = ws->Acquire({0});
  // W_x^T and W_h^T are prepared once for the call's 2 * time products.
  const ops::PreparedRhs wx_t =
      ops::PrepareRhsTransposed(weight_x_.value, batch, ws->Acquire({0}));
  const ops::PreparedRhs wh_t =
      ops::PrepareRhsTransposed(weight_h_.value, batch, ws->Acquire({0}));

  Tensor grad_input({batch, time, D});
  for (size_t t = time; t-- > 0;) {
    // The step's dh is the gradient from step t + 1 plus its own output's.
    const float* grad_h = nullptr;
    if (return_sequences_) {
      grad_h = grad_output.data() + t * H;
    } else if (t == time - 1) {
      grad_h = grad_output.data();
    }
    ops::LstmCellBackward(*record_.act[t], *record_.tanh_c[t],
                          *record_.c[t], *dh_next, grad_h,
                          return_sequences_ ? time * H : H, dc, dgates);

    // Parameter gradients: this step's x_t^T dgates, h_t^T dgates and
    // column sums of dgates, each added in step order. x_t is read in
    // place from the recorded input.
    const ops::PreparedRhs dg =
        ops::PrepareSumRhs(ops::StridedMatrix::Of(*dgates), dgates_panels);
    ops::AddProduct({input.data() + t * D, D, batch, 1, time * D}, dg,
                    &weight_x_.grad);
    ops::AddProduct(ops::StridedMatrix::TransposeOf(*record_.h[t]), dg,
                    &weight_h_.grad);
    ops::AddProduct(ops::StridedMatrix::Ones(batch), dg, &bias_.grad);

    // Input and recurrent gradients: dgates W_x^T and dgates W_h^T.
    ops::MatmulInto(*dgates, wx_t, dx);
    for (size_t n = 0; n < batch; ++n) {
      std::copy(dx->data() + n * D, dx->data() + (n + 1) * D,
                grad_input.data() + (n * time + t) * D);
    }
    ops::MatmulInto(*dgates, wh_t, dh_next);
  }
  ws->Rewind(mark);
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

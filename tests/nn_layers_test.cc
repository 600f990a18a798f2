#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv_trunk.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace apots::nn {
namespace {

using apots::tensor::Tensor;

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

TEST(DenseTest, OutputShape) {
  apots::Rng rng(1);
  Dense layer(5, 3, &rng);
  tensor::Workspace ws;
  const Tensor input = Random({4, 5}, 2);
  const Tensor& out = *layer.RecordForward(input, &ws);
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 3u);
}

TEST(DenseTest, ZeroInputYieldsBias) {
  apots::Rng rng(1);
  Dense layer(3, 2, &rng);
  tensor::Workspace ws;
  const Tensor& out = *layer.Forward(Tensor::Zeros({1, 3}), &ws);
  // Bias starts at zero, so output must be exactly zero.
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(DenseTest, ParametersExposed) {
  apots::Rng rng(1);
  Dense layer(5, 3, &rng);
  auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->value.size(), 15u);
  EXPECT_EQ(params[1]->value.size(), 3u);
  EXPECT_EQ(CountWeights(params), 18u);
}

TEST(ReluTest, ClampsNegatives) {
  Relu relu;
  tensor::Workspace ws;
  const Tensor& out =
      *relu.Forward(Tensor::FromVector({-2.0f, 0.0f, 3.0f}), &ws);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 3.0f);
}

TEST(LeakyReluTest, ScalesNegatives) {
  LeakyRelu leaky(0.1f);
  tensor::Workspace ws;
  const Tensor& out = *leaky.Forward(Tensor::FromVector({-2.0f, 3.0f}), &ws);
  EXPECT_FLOAT_EQ(out[0], -0.2f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
}

/// NaN, signed zeros, infinities, subnormals either side of zero, and
/// random values: 83 floats, so the passes run vector blocks and a tail.
Tensor ActivationInputs() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min();
  std::vector<float> xs = {nan,  -nan, 0.0f,  -0.0f, inf, -inf, sub,
                           -sub, 1e-39f, -1e-39f, 1.0f, -1.0f};
  apots::Rng rng(3);
  while (xs.size() < 83) xs.push_back(static_cast<float>(rng.Normal(0.0, 2.0)));
  return Tensor::FromVector(xs);
}

void ExpectSameBits(const Tensor& got, const std::vector<float>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(ActivationPassTest, ReluAndLeakyReluKeepTheScalarLoopsBits) {
  // The scalar loops the vector passes replaced, branch for branch.
  const Tensor x = ActivationInputs();
  const Tensor g = Tensor::Full({x.size()}, 0.75f);
  const float slope = 0.2f;
  std::vector<float> relu(x.size()), relu_grad(x.size());
  std::vector<float> leaky(x.size()), leaky_grad(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    relu[i] = x[i] > 0.0f ? x[i] : 0.0f;
    relu_grad[i] = g[i];
    if (x[i] <= 0.0f) relu_grad[i] = 0.0f;
    leaky[i] = x[i];
    if (leaky[i] < 0.0f) leaky[i] *= slope;
    leaky_grad[i] = g[i];
    if (x[i] < 0.0f) leaky_grad[i] *= slope;
  }

  tensor::Workspace ws;
  Relu r;
  ExpectSameBits(*r.RecordForward(x, &ws), relu, "relu recorded forward");
  ExpectSameBits(r.Backward(g), relu_grad, "relu backward");
  ExpectSameBits(*r.Forward(x, &ws), relu, "relu inference forward");
  LeakyRelu l(slope);
  ExpectSameBits(*l.RecordForward(x, &ws), leaky, "leaky recorded forward");
  ExpectSameBits(l.Backward(g), leaky_grad, "leaky backward");
  ExpectSameBits(*l.Forward(x, &ws), leaky, "leaky inference forward");

  // The asymmetries the bits carry: Relu's forward maps NaN and -0 to +0
  // but its backward passes the gradient at NaN; LeakyRelu leaves NaN and
  // -0 unscaled.
  EXPECT_EQ(std::bit_cast<uint32_t>(relu[0]), 0u);
  EXPECT_EQ(std::bit_cast<uint32_t>(relu[3]), 0u);
  EXPECT_EQ(relu_grad[0], 0.75f);
  EXPECT_TRUE(std::isnan(leaky[0]));
  EXPECT_EQ(std::bit_cast<uint32_t>(leaky[3]), 0x80000000u);
}

TEST(SigmoidScalarTest, StableAtExtremes) {
  EXPECT_NEAR(SigmoidScalar(500.0f), 1.0f, 1e-7f);
  EXPECT_NEAR(SigmoidScalar(-500.0f), 0.0f, 1e-7f);
  EXPECT_FALSE(std::isnan(SigmoidScalar(-10000.0f)));
}

TEST(Conv2dTest, SamePaddingPreservesSpatialShape) {
  apots::Rng rng(8);
  ConvTrunk flat(1, 13, 12, {4}, {3}, ConvTrunk::Layout::kFlat, &rng);
  const Tensor image = Random({2, 1, 13, 12}, 9);
  tensor::Workspace ws;
  const Tensor& out = *flat.RecordForward(image, &ws);
  EXPECT_EQ(out.shape(), (std::vector<size_t>{2, 4 * 13 * 12}));
  // The sequence layout keeps the 12 columns as time steps.
  ConvTrunk sequence(1, 13, 12, {4}, {3}, ConvTrunk::Layout::kSequence, &rng);
  EXPECT_EQ(sequence.RecordForward(image, &ws)->shape(),
            (std::vector<size_t>{2, 12, 4 * 13}));
}

TEST(Conv2dTest, OneByOneKernelIsPerPixelDense) {
  apots::Rng rng(10);
  ConvTrunk conv(2, 3, 3, {1}, {1}, ConvTrunk::Layout::kFlat, &rng);
  Tensor in = Random({1, 2, 3, 3}, 11);
  tensor::Workspace ws;
  const Tensor& out = *conv.Forward(in, &ws);
  // Manually compute pixel (1,1): relu(w0*c0 + w1*c1 + b).
  auto params = conv.Parameters();
  const float w0 = params[0]->value[0];
  const float w1 = params[0]->value[1];
  const float b = params[1]->value[0];
  const float c0 = in[0 * 9 + 4];
  const float c1 = in[1 * 9 + 4];
  EXPECT_NEAR(out[4], std::max(0.0f, w0 * c0 + w1 * c1 + b), 1e-5f);
}

TEST(Conv2dTest, ConstantImageUniformInterior) {
  apots::Rng rng(12);
  ConvTrunk conv(1, 5, 5, {1}, {3}, ConvTrunk::Layout::kFlat, &rng);
  tensor::Workspace ws;
  const Tensor& out = *conv.Forward(Tensor::Full({1, 1, 5, 5}, 1.0f), &ws);
  // All interior pixels see the same receptive field.
  const float centre = out[2 * 5 + 2];
  EXPECT_NEAR(out[1 * 5 + 1], centre, 1e-5f);
  EXPECT_NEAR(out[3 * 5 + 3], centre, 1e-5f);
}

TEST(LstmTest, LastStateShape) {
  apots::Rng rng(13);
  Lstm lstm(5, 7, /*return_sequences=*/false, &rng);
  tensor::Workspace ws;
  const Tensor input = Random({3, 12, 5}, 14);
  const Tensor& out = *lstm.RecordForward(input, &ws);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 7u);
}

TEST(LstmTest, SequenceShape) {
  apots::Rng rng(15);
  Lstm lstm(5, 7, /*return_sequences=*/true, &rng);
  tensor::Workspace ws;
  const Tensor input = Random({3, 12, 5}, 16);
  const Tensor& out = *lstm.RecordForward(input, &ws);
  EXPECT_EQ(out.dim(0), 3u);
  EXPECT_EQ(out.dim(1), 12u);
  EXPECT_EQ(out.dim(2), 7u);
}

TEST(LstmTest, SequenceLastStepMatchesLastState) {
  apots::Rng rng_a(17), rng_b(17);
  Lstm seq(4, 6, true, &rng_a);
  Lstm last(4, 6, false, &rng_b);  // identical weights from identical seed
  const Tensor in = Random({2, 9, 4}, 18);
  tensor::Workspace ws;
  const Tensor& seq_out = *seq.RecordForward(in, &ws);
  const Tensor& last_out = *last.RecordForward(in, &ws);
  for (size_t n = 0; n < 2; ++n) {
    for (size_t h = 0; h < 6; ++h) {
      EXPECT_FLOAT_EQ(seq_out.At3(n, 8, h), last_out.At(n, h));
    }
  }
}

TEST(LstmTest, OutputBounded) {
  // h = o * tanh(c) with o in (0,1): |h| < 1 always.
  apots::Rng rng(19);
  Lstm lstm(3, 5, false, &rng);
  tensor::Workspace ws;
  const Tensor& out = *lstm.Forward(Random({4, 20, 3}, 20), &ws);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_LT(std::fabs(out[i]), 1.0f);
  }
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  apots::Rng rng(21);
  Lstm lstm(3, 4, false, &rng);
  auto params = lstm.Parameters();
  ASSERT_EQ(params.size(), 3u);
  const Tensor& bias = params[2]->value;
  for (size_t j = 4; j < 8; ++j) EXPECT_FLOAT_EQ(bias[j], 1.0f);
  for (size_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(bias[j], 0.0f);
}

TEST(SequentialTest, ChainsLayersAndCollectsParams) {
  apots::Rng rng(22);
  Sequential net;
  net.Emplace<Dense>(6, 4, &rng);
  net.Emplace<Relu>();
  net.Emplace<Dense>(4, 2, &rng);
  EXPECT_EQ(net.NumLayers(), 3u);
  EXPECT_EQ(net.Parameters().size(), 4u);
  tensor::Workspace ws;
  const Tensor input = Random({3, 6}, 23);
  EXPECT_EQ(net.RecordForward(input, &ws)->cols(), 2u);
  const Tensor grad = net.Backward(Random({3, 2}, 24));
  EXPECT_EQ(grad.cols(), 6u);
}

TEST(SequentialTest, NameListsLayers) {
  apots::Rng rng(25);
  Sequential net;
  net.Emplace<Dense>(2, 2, &rng);
  net.Emplace<Relu>();
  const std::string name = net.Name();
  EXPECT_NE(name.find("Dense(2 -> 2)"), std::string::npos);
  EXPECT_NE(name.find("Relu"), std::string::npos);
}

/// Backward reads the record of the last recorded forward: it dies when no
/// recorded forward came before it, or when that forward's workspace was
/// reset since. An inference forward in between leaves the record alone.
void ExpectBackwardNeedsALiveRecord(Layer* layer, const Tensor& input,
                                    const Tensor& grad) {
  EXPECT_DEATH((void)layer->Backward(grad),
               "Backward before a recorded forward");
  tensor::Workspace ws;
  (void)layer->RecordForward(input, &ws);
  (void)layer->Forward(input, &ws);
  (void)layer->Backward(grad);
  ws.Reset();
  EXPECT_DEATH((void)layer->Backward(grad),
               "Backward after its workspace was reset");
}

TEST(DenseTest, BackwardNeedsALiveRecord) {
  apots::Rng rng(26);
  Dense layer(5, 3, &rng);
  ExpectBackwardNeedsALiveRecord(&layer, Random({4, 5}, 27),
                                 Random({4, 3}, 28));
}

TEST(ReluTest, BackwardNeedsALiveRecord) {
  Relu layer;
  ExpectBackwardNeedsALiveRecord(&layer, Random({4, 5}, 29),
                                 Random({4, 5}, 30));
}

TEST(LeakyReluTest, BackwardNeedsALiveRecord) {
  LeakyRelu layer;
  ExpectBackwardNeedsALiveRecord(&layer, Random({4, 5}, 31),
                                 Random({4, 5}, 32));
}

TEST(LstmTest, BackwardNeedsALiveRecord) {
  apots::Rng rng(33);
  Lstm layer(5, 4, /*return_sequences=*/true, &rng);
  ExpectBackwardNeedsALiveRecord(&layer, Random({4, 6, 5}, 34),
                                 Random({4, 6, 4}, 35));
}

TEST(SequentialTest, BackwardNeedsALiveRecord) {
  apots::Rng rng(36);
  Sequential net;
  net.Emplace<Dense>(6, 4, &rng);
  net.Emplace<LeakyRelu>();
  net.Emplace<Dense>(4, 2, &rng);
  ExpectBackwardNeedsALiveRecord(&net, Random({3, 6}, 37),
                                 Random({3, 2}, 38));
}

// Backward checks the whole gradient against the recorded output's shape:
// BPTT reads every row the record has, so a gradient with fewer rows would
// be read past its end.
TEST(LstmTest, BackwardRefusesAGradientOfAnotherShape) {
  apots::Rng rng(39);
  for (bool sequences : {true, false}) {
    Lstm lstm(5, 4, sequences, &rng);
    const Tensor input = Random({4, 6, 5}, 40);
    tensor::Workspace ws;
    (void)lstm.RecordForward(input, &ws);
    const Tensor short_grad =
        sequences ? Random({2, 6, 4}, 41) : Random({2, 4}, 41);
    EXPECT_DEATH((void)lstm.Backward(short_grad),
                 "not the recorded output's")
        << sequences;
  }
}

TEST(ModuleTest, GradNormAndClip) {
  Parameter p("p", Tensor::FromVector({3.0f, 4.0f}));
  p.grad = Tensor::FromVector({3.0f, 4.0f});
  std::vector<Parameter*> params = {&p};
  EXPECT_NEAR(GradNorm(params), 5.0, 1e-6);
  ClipGradNorm(params, 1.0);
  EXPECT_NEAR(GradNorm(params), 1.0, 1e-5);
  // Clipping below the max is a no-op.
  ClipGradNorm(params, 10.0);
  EXPECT_NEAR(GradNorm(params), 1.0, 1e-5);
}

TEST(ModuleTest, ZeroAllGrads) {
  Parameter p("p", Tensor::FromVector({1.0f}));
  p.grad[0] = 9.0f;
  std::vector<Parameter*> params = {&p};
  ZeroAllGrads(params);
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

}  // namespace
}  // namespace apots::nn

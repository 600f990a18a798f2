// nn::ConvTrunk against its per-sample oracle (conv_reference.h), bit for
// bit: outputs of the inference and the recorded forward, the input
// gradient and every parameter gradient. The trunk runs each layer as one
// im2col and one product over a channel-major batch (over blocks of
// samples, in the inference forward), so these cases cross the things that
// could move a bit: batch sizes around the inference forward's blocks and
// the 16-row panel threshold, 1x1 and 3x3 kernels, 1 and 16 channels
// (products of 1, 15, 16 and 17 rows), both output layouts, pool sizes 1
// and 4, and a trunk run inside a pool task, where every kernel runs
// inline.

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "conv_reference.h"
#include "nn/conv_trunk.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apots::nn {
namespace {

using apots::tensor::Tensor;

struct TrunkCase {
  const char* name;
  size_t in_channels;
  size_t height;
  size_t width;
  std::vector<size_t> channels;
  std::vector<size_t> kernels;
  ConvTrunk::Layout layout;
};

// H's and C's trunk at perfbench scale (Scaled(kHybrid, 8): 13 rows,
// alpha 12), and two that put 1, 15, 16 and 17 rows on either side of the
// panel threshold, forward (out channels) and backward (in*k*k).
const std::vector<TrunkCase>& Cases() {
  static const std::vector<TrunkCase> cases = {
      {"Hybrid", 1, 13, 12, {16, 4, 8}, {3, 1, 3},
       ConvTrunk::Layout::kSequence},
      {"Cnn", 1, 13, 12, {16, 4, 8}, {3, 1, 3}, ConvTrunk::Layout::kFlat},
      {"Wide", 16, 5, 4, {1, 17}, {1, 3}, ConvTrunk::Layout::kFlat},
      {"Narrow", 3, 7, 5, {15, 16}, {3, 1}, ConvTrunk::Layout::kSequence},
  };
  return cases;
}

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

void ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  size_t differ = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    differ += std::memcmp(expected.data() + i, actual.data() + i,
                          sizeof(float)) != 0;
  }
  EXPECT_EQ(differ, 0u) << what << ": " << differ << " of " << expected.size()
                        << " elements differ bitwise";
}

class ConvTrunkOracleTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  ~ConvTrunkOracleTest() override { ResetGlobalPool(1); }
};

TEST_P(ConvTrunkOracleTest, MatchesPerSampleConvBitwise) {
  const auto [case_index, batch] = GetParam();
  const TrunkCase& tc = Cases()[case_index];
  apots::Rng rng(7 + case_index);
  ConvTrunk trunk(tc.in_channels, tc.height, tc.width, tc.channels,
                  tc.kernels, tc.layout, &rng);
  // Random biases, so the bias add and both sides of every ReLU count.
  for (size_t l = 0; l < tc.channels.size(); ++l) {
    Tensor& bias = trunk.Parameters()[2 * l + 1]->value;
    bias = Random(bias.shape(), 100 + l);
  }
  std::vector<size_t> input_shape = {batch, tc.in_channels, tc.height,
                                     tc.width};
  if (tc.in_channels == 1) input_shape.erase(input_shape.begin() + 1);
  const Tensor input = Random(input_shape, 200 + batch);
  const size_t out_features = tc.channels.back() * tc.height * tc.width;
  const Tensor grad_output = Random(
      tc.layout == ConvTrunk::Layout::kFlat
          ? std::vector<size_t>{batch, out_features}
          : std::vector<size_t>{batch, tc.width, out_features / tc.width},
      300 + batch);
  const conv_reference::TrunkResult expected = conv_reference::RunTrunk(
      conv_reference::LayersOf(&trunk, tc.kernels), tc.layout,
      tc.in_channels, tc.height, tc.width, input, grad_output);

  const auto check = [&](const std::string& where) {
    tensor::Workspace ws;
    ExpectBitIdentical(expected.output, *trunk.Forward(input, &ws),
                       where + " inference forward");
    ZeroAllGrads(trunk.Parameters());
    tensor::Workspace record_ws;
    ExpectBitIdentical(expected.output, *trunk.RecordForward(input, &record_ws),
                       where + " recorded forward");
    ExpectBitIdentical(expected.grad_input, trunk.Backward(grad_output)
                                                .Reshape(expected.grad_input
                                                             .shape()),
                       where + " input gradient");
    const auto params = trunk.Parameters();
    for (size_t l = 0; l < tc.channels.size(); ++l) {
      ExpectBitIdentical(expected.grad_weight[l], params[2 * l]->grad,
                         where + " weight gradient " + std::to_string(l));
      ExpectBitIdentical(expected.grad_bias[l], params[2 * l + 1]->grad,
                         where + " bias gradient " + std::to_string(l));
    }
  };
  for (size_t threads : {1u, 4u}) {
    ResetGlobalPool(threads);
    check("pool " + std::to_string(threads));
  }
  // Inside a pool task every kernel the trunk calls runs inline.
  GlobalPool().ParallelFor(0, 1, 1, [&](size_t, size_t, size_t) {
    check("pool task");
  });
}

INSTANTIATE_TEST_SUITE_P(
    Trunks, ConvTrunkOracleTest,
    ::testing::Combine(::testing::Range<size_t>(0, 4),
                       ::testing::Values<size_t>(1, 2, 3, 15, 16, 17, 64,
                                                 65)),
    [](const auto& info) {
      return std::string(Cases()[std::get<0>(info.param)].name) + "_batch" +
             std::to_string(std::get<1>(info.param));
    });

// The gradients accumulate across Backward calls like every layer's, and a
// second recorded forward on a different batch size replaces the record.
// The trunk records its own copy of the input, so the batch may go first.
TEST(ConvTrunkTest, BackwardAccumulatesAndForwardRecaches) {
  apots::Rng rng(3);
  ConvTrunk trunk(1, 5, 4, {3, 2}, {3, 1}, ConvTrunk::Layout::kFlat, &rng);
  const Tensor grad_small = Random({2, 2 * 5 * 4}, 5);
  ZeroAllGrads(trunk.Parameters());
  tensor::Workspace ws;
  (void)trunk.RecordForward(Random({7, 5, 4}, 6), &ws);
  (void)trunk.RecordForward(Random({2, 5, 4}, 4), &ws);
  (void)trunk.Backward(grad_small);
  const Tensor once = trunk.Parameters()[0]->grad;
  (void)trunk.Backward(grad_small);
  const Tensor& twice = trunk.Parameters()[0]->grad;
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_FLOAT_EQ(twice[i], 2.0f * once[i]);
  }
}

// The inference forward's blocks reuse their slots: a 64-sample forward
// holds one block's columns and activations, not the batch's.
TEST(ConvTrunkTest, WorkspaceHoldsOneBlockOfScratch) {
  apots::Rng rng(8);
  const ConvTrunk trunk(1, 13, 12, {16, 4, 8}, {3, 1, 3},
                        ConvTrunk::Layout::kSequence, &rng);
  tensor::Workspace ws;
  (void)trunk.Forward(Random({64, 13, 12}, 9), &ws);
  const size_t batch_scratch = (1 + 9 + 16 + 4 + 36 + 8) * 64 * 13 * 12;
  const size_t output = 8 * 64 * 13 * 12;
  EXPECT_LT(ws.high_water_floats(), output + batch_scratch / 4);
  EXPECT_EQ(ws.slots_in_use(), 7u);
}

// Backward reads the last recorded forward's record: it dies when there is
// none, or when that forward's workspace was reset since.
TEST(ConvTrunkTest, BackwardNeedsALiveRecord) {
  apots::Rng rng(10);
  ConvTrunk trunk(1, 5, 4, {3, 2}, {3, 1}, ConvTrunk::Layout::kFlat, &rng);
  const Tensor input = Random({2, 5, 4}, 11);
  const Tensor grad = Random({2, 2 * 5 * 4}, 12);
  EXPECT_DEATH((void)trunk.Backward(grad),
               "Backward before a recorded forward");
  tensor::Workspace ws;
  (void)trunk.RecordForward(input, &ws);
  (void)trunk.Forward(input, &ws);
  (void)trunk.Backward(grad);
  ws.Reset();
  EXPECT_DEATH((void)trunk.Backward(grad),
               "Backward after its workspace was reset");
}

}  // namespace
}  // namespace apots::nn

#include "core/predictor.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace apots::core {
namespace {

/// Heap allocations of at least 1 KB made while `counting` is set.
std::atomic<bool> counting{false};
std::atomic<size_t> large_allocations{0};

void* CountedAlloc(size_t bytes, size_t alignment) {
  if (bytes >= 1024 && counting.load(std::memory_order_relaxed)) {
    large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t size = (std::max<size_t>(bytes, 1) + alignment - 1) /
                      alignment * alignment;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace
}  // namespace apots::core

void* operator new(size_t bytes) {
  return apots::core::CountedAlloc(bytes, alignof(std::max_align_t));
}
void* operator new(size_t bytes, std::align_val_t alignment) {
  return apots::core::CountedAlloc(bytes, static_cast<size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace apots::core {
namespace {

using apots::tensor::Tensor;

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, 0.0f, 1.0f);
  return t;
}

constexpr size_t kRows = 13;
constexpr size_t kAlpha = 12;

class PredictorFamilySweep
    : public ::testing::TestWithParam<PredictorType> {};

TEST_P(PredictorFamilySweep, ForwardShapeIsBatchByOne) {
  apots::Rng rng(1);
  auto predictor = MakePredictor(PredictorHparams::Scaled(GetParam(), 16),
                                 kRows, kAlpha, &rng);
  const Tensor out = predictor->Forward(Random({5, kRows, kAlpha}, 2), false);
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 1u);
}

TEST_P(PredictorFamilySweep, BackwardReturnsInputShapedGradient) {
  apots::Rng rng(3);
  auto predictor = MakePredictor(PredictorHparams::Scaled(GetParam(), 16),
                                 kRows, kAlpha, &rng);
  const Tensor input = Random({4, kRows, kAlpha}, 4);
  (void)predictor->Forward(input, true);
  const Tensor grad = predictor->Backward(Random({4, 1}, 5));
  EXPECT_TRUE(grad.SameShape(input));
}

TEST_P(PredictorFamilySweep, DeterministicForSeed) {
  const Tensor input = Random({3, kRows, kAlpha}, 6);
  apots::Rng rng_a(7), rng_b(7);
  auto a = MakePredictor(PredictorHparams::Scaled(GetParam(), 16), kRows,
                         kAlpha, &rng_a);
  auto b = MakePredictor(PredictorHparams::Scaled(GetParam(), 16), kRows,
                         kAlpha, &rng_b);
  const Tensor out_a = a->Forward(input, false);
  const Tensor out_b = b->Forward(input, false);
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i], out_b[i]);
  }
}

TEST_P(PredictorFamilySweep, BatchInvariance) {
  // Predicting a batch must equal predicting each sample alone.
  apots::Rng rng(8);
  auto predictor = MakePredictor(PredictorHparams::Scaled(GetParam(), 16),
                                 kRows, kAlpha, &rng);
  const Tensor batch = Random({3, kRows, kAlpha}, 9);
  const Tensor batched = predictor->Forward(batch, false);
  for (size_t n = 0; n < 3; ++n) {
    Tensor single({1, kRows, kAlpha});
    std::copy(batch.data() + n * kRows * kAlpha,
              batch.data() + (n + 1) * kRows * kAlpha, single.data());
    const Tensor out = predictor->Forward(single, false);
    EXPECT_NEAR(out[0], batched[n], 1e-5f);
  }
}

// A training forward records into the predictor's own workspace, which
// stops growing: a second step at the same batch size adds no slots and no
// floats. The row counts put the products on both sides of the 16-row
// panel threshold; 192 is an adversarial round's batch.
TEST_P(PredictorFamilySweep, SecondTrainingStepAddsNoSlotsOrFloats) {
  apots::Rng rng(11);
  auto predictor = MakePredictor(PredictorHparams::Scaled(GetParam(), 16),
                                 kRows, kAlpha, &rng);
  for (size_t rows : {15u, 16u, 17u, 192u}) {
    size_t slots = 0, floats = 0;
    for (int step = 0; step < 2; ++step) {
      (void)predictor->Forward(Random({rows, kRows, kAlpha}, 12), true);
      (void)predictor->Backward(Random({rows, 1}, 13));
      const tensor::Workspace& ws = predictor->training_workspace();
      if (step == 1) {
        EXPECT_EQ(ws.capacity_slots(), slots) << rows;
        EXPECT_EQ(ws.capacity_floats(), floats) << rows;
      }
      slots = ws.capacity_slots();
      floats = ws.capacity_floats();
    }
  }
}

// From a second step at a batch size, Backward takes all its scratch from
// the training workspace: its only heap allocations of 1 KB or more are the
// input gradients the layers return (and L's transpose of its own back to
// the batch's layout, F's reshaped copy). At HEAD before the workspace
// scratch, a 192-row step made 169 (H), 160 (L), 12 (C) and 14 (F).
TEST_P(PredictorFamilySweep, SecondBackwardAllocatesOnlyInputGradients) {
  apots::Rng rng(21);
  auto predictor = MakePredictor(PredictorHparams::Scaled(GetParam(), 16),
                                 kRows, kAlpha, &rng);
  // H: trunk, 2 LSTMs, dense. L: 2 LSTMs, dense, the transpose. C: trunk,
  // dense. F: 5 dense and 4 ReLU layers, the reshape.
  const size_t expected[] = {10, 4, 2, 4};
  for (size_t rows : {64u, 192u}) {
    for (int step = 0; step < 2; ++step) {
      (void)predictor->Forward(Random({rows, kRows, kAlpha}, 22), true);
      const Tensor grad = Random({rows, 1}, 23);
      large_allocations = 0;
      counting = true;
      (void)predictor->Backward(grad);
      counting = false;
      if (step == 1) {
        EXPECT_EQ(large_allocations.load(),
                  expected[static_cast<size_t>(GetParam())])
            << rows << " rows";
      }
    }
  }
}

// The adversarial round's pattern: the training forward's batch is gone by
// the time Backward runs. The predictor records its own copy of the batch,
// so every gradient equals the one from a batch that stayed alive.
TEST_P(PredictorFamilySweep, BackwardOutlivesTheRecordedBatch) {
  apots::Rng rng(14);
  auto predictor = MakePredictor(PredictorHparams::Scaled(GetParam(), 16),
                                 kRows, kAlpha, &rng);
  const auto params = predictor->Parameters();
  for (size_t rows : {15u, 16u, 17u, 192u}) {
    const Tensor grad_output = Random({rows, 1}, 15);
    const auto gradients = [&](const Tensor& input_grad) {
      std::vector<Tensor> out = {input_grad};
      for (const Parameter* p : params) out.push_back(p->grad);
      return out;
    };

    apots::nn::ZeroAllGrads(params);
    const Tensor kept = Random({rows, kRows, kAlpha}, 16);
    (void)predictor->Forward(kept, true);
    const std::vector<Tensor> want =
        gradients(predictor->Backward(grad_output));

    apots::nn::ZeroAllGrads(params);
    {
      const Tensor temporary = Random({rows, kRows, kAlpha}, 16);
      (void)predictor->Forward(temporary, true);
    }
    // The allocator may hand the temporary's storage out again: a record
    // that still pointed there would read these values.
    const Tensor scribble = Tensor::Full({rows, kRows, kAlpha}, 1e30f);
    const std::vector<Tensor> got =
        gradients(predictor->Backward(grad_output));

    ASSERT_EQ(got.size(), want.size());
    for (size_t g = 0; g < want.size(); ++g) {
      ASSERT_TRUE(got[g].SameShape(want[g]));
      EXPECT_EQ(std::memcmp(got[g].data(), want[g].data(),
                            want[g].size() * sizeof(float)),
                0)
          << "rows " << rows << " gradient " << g;
    }
  }
}

TEST_P(PredictorFamilySweep, HasTrainableParameters) {
  apots::Rng rng(10);
  auto predictor = MakePredictor(PredictorHparams::Scaled(GetParam(), 16),
                                 kRows, kAlpha, &rng);
  EXPECT_GT(apots::nn::CountWeights(predictor->Parameters()), 50u);
  EXPECT_EQ(predictor->type(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Families, PredictorFamilySweep,
                         ::testing::Values(PredictorType::kFc,
                                           PredictorType::kLstm,
                                           PredictorType::kCnn,
                                           PredictorType::kHybrid));

TEST(PredictorHparamsTest, PaperValuesMatchTableI) {
  const auto f = PredictorHparams::Paper(PredictorType::kFc);
  EXPECT_EQ(f.fc_hidden, (std::vector<size_t>{512, 128, 256, 64}));
  EXPECT_FLOAT_EQ(f.learning_rate, 0.001f);
  const auto l = PredictorHparams::Paper(PredictorType::kLstm);
  EXPECT_EQ(l.lstm_hidden, (std::vector<size_t>{512, 512}));
  const auto c = PredictorHparams::Paper(PredictorType::kCnn);
  EXPECT_EQ(c.cnn_channels, (std::vector<size_t>{128, 32, 64}));
  EXPECT_EQ(c.cnn_kernels, (std::vector<size_t>{3, 1, 3}));
}

TEST(PredictorHparamsTest, ScaledDividesWithFloor) {
  const auto h = PredictorHparams::Scaled(PredictorType::kHybrid, 16);
  EXPECT_EQ(h.lstm_hidden, (std::vector<size_t>{32, 32}));
  EXPECT_EQ(h.cnn_channels, (std::vector<size_t>{8, 4, 4}));
  // Kernels are architecture, not capacity: unchanged.
  EXPECT_EQ(h.cnn_kernels, (std::vector<size_t>{3, 1, 3}));
  const auto tiny = PredictorHparams::Scaled(PredictorType::kFc, 1000);
  for (size_t w : tiny.fc_hidden) EXPECT_EQ(w, 4u);
}

TEST(PredictorTypeTest, NamesAndLabels) {
  EXPECT_STREQ(PredictorTypeName(PredictorType::kFc), "F");
  EXPECT_STREQ(PredictorTypeName(PredictorType::kHybrid), "H");
  EXPECT_STREQ(PredictorTypeLabel(PredictorType::kLstm), "LSTM");
  EXPECT_STREQ(PredictorTypeLabel(PredictorType::kCnn), "CNN");
}

TEST(PredictorTest, HybridUsesBothTrunks) {
  apots::Rng rng(11);
  auto hybrid = MakePredictor(PredictorHparams::Scaled(PredictorType::kHybrid,
                                                       16),
                              kRows, kAlpha, &rng);
  // Hybrid = conv params (2 per conv layer) + lstm params (3 per layer)
  // + dense head (2).
  EXPECT_EQ(hybrid->Parameters().size(), 3u * 2 + 2u * 3 + 2u);
}

}  // namespace
}  // namespace apots::core

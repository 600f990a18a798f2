// Determinism contract of the parallel execution layer (DESIGN.md §9):
// kernels and seeded training runs must be bit-identical at any
// APOTS_NUM_THREADS. These tests run the same computation under pool
// sizes 1 and 4 (and 3, for a non-power-of-two) and require exact
// equality, not tolerances.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/apots_model.h"
#include "data/windowing.h"
#include "tensor/tensor_ops.h"
#include "traffic/dataset_generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apots {
namespace {

namespace ops = apots::tensor;
using apots::tensor::Tensor;

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  ops::FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": results differ bitwise";
}

class PoolSizeSweep : public ::testing::Test {
 protected:
  ~PoolSizeSweep() override { ResetGlobalPool(1); }
};

TEST_F(PoolSizeSweep, GemmKernelsBitIdenticalAcrossPoolSizes) {
  const Tensor a = Random({61, 47}, 1);
  const Tensor b = Random({47, 53}, 2);
  const Tensor a_tall = Random({47, 61}, 3);   // for a^T b
  const Tensor b_rows = Random({53, 47}, 4);   // for a b^T
  const Tensor image = Random({8, 4 * 13 * 12}, 5);  // 4 samples

  ResetGlobalPool(1);
  const Tensor mm1 = ops::Matmul(a, b);
  const Tensor ta1 = ops::MatmulTransposeA(a_tall, b);
  const Tensor tb1 = ops::MatmulTransposeB(a, b_rows);
  const Tensor im1 = ops::Im2Col(image, 13, 12, 3);
  for (size_t threads : {3u, 4u}) {
    ResetGlobalPool(threads);
    ExpectBitIdentical(mm1, ops::Matmul(a, b), "Matmul");
    ExpectBitIdentical(ta1, ops::MatmulTransposeA(a_tall, b),
                       "MatmulTransposeA");
    ExpectBitIdentical(tb1, ops::MatmulTransposeB(a, b_rows),
                       "MatmulTransposeB");
    ExpectBitIdentical(im1, ops::Im2Col(image, 13, 12, 3), "Im2Col");
  }
}

TEST_F(PoolSizeSweep, BlockedKernelsMatchReferenceKernels) {
  // The blocked kernels keep the reference per-element accumulation
  // order, so agreement is exact — including at larger-than-panel k.
  for (size_t threads : {1u, 4u}) {
    ResetGlobalPool(threads);
    const Tensor a = Random({33, 300}, 6);
    const Tensor b = Random({300, 29}, 7);
    ExpectBitIdentical(ops::reference::Matmul(a, b), ops::Matmul(a, b),
                       "Matmul vs reference");
    const Tensor at = Random({300, 33}, 8);
    ExpectBitIdentical(ops::reference::MatmulTransposeA(at, b),
                       ops::MatmulTransposeA(at, b),
                       "MatmulTransposeA vs reference");
    const Tensor bt = Random({29, 300}, 9);
    ExpectBitIdentical(ops::reference::MatmulTransposeB(a, bt),
                       ops::MatmulTransposeB(a, bt),
                       "MatmulTransposeB vs reference");
    // Each sample's block of the batched im2col is the reference's
    // im2col of that sample.
    const size_t batch = 3, plane = 11 * 9;
    const Tensor images = Random({5, batch * plane}, 10);
    const Tensor columns = ops::Im2Col(images, 11, 9, 3);
    for (size_t n = 0; n < batch; ++n) {
      Tensor image({5, 11, 9});
      Tensor block({5 * 9, plane});
      for (size_t c = 0; c < 5; ++c) {
        std::memcpy(image.data() + c * plane,
                    images.data() + (c * batch + n) * plane,
                    plane * sizeof(float));
      }
      for (size_t row = 0; row < block.rows(); ++row) {
        std::memcpy(block.data() + row * plane,
                    columns.data() + (row * batch + n) * plane,
                    plane * sizeof(float));
      }
      ExpectBitIdentical(ops::reference::Im2Col(image, 3, 3, 1), block,
                         "Im2Col vs reference");
    }
  }
}

core::ApotsConfig TrainingConfig(size_t micro_batch) {
  core::ApotsConfig config;
  config.predictor = core::PredictorHparams::Scaled(core::PredictorType::kFc, 8);
  config.discriminator = core::DiscriminatorHparams::Scaled(4);
  config.features = apots::data::FeatureConfig::Both();
  config.features.num_adjacent = 1;
  config.features.beta = 3;
  config.training.adversarial = true;
  config.training.epochs = 2;
  config.training.batch_size = 32;
  config.training.micro_batch = micro_batch;
  config.training.adv_period = 4;
  config.training.adv_warmup_rounds = 0;
  config.training.guard.enabled = true;
  config.seed = 1234;
  return config;
}

struct TrainedWeights {
  std::vector<Tensor> params;
  core::TrainReport report;
};

TrainedWeights TrainAtPoolSize(const apots::traffic::TrafficDataset& dataset,
                               const std::vector<long>& anchors,
                               size_t pool_size, size_t micro_batch) {
  ResetGlobalPool(pool_size);
  core::ApotsModel model(&dataset, TrainingConfig(micro_batch));
  auto result = model.TrainGuarded(anchors);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  TrainedWeights out;
  out.report = result.value();
  for (auto* p : model.predictor().Parameters()) out.params.push_back(p->value);
  return out;
}

TEST_F(PoolSizeSweep, TrainGuardedWeightsBitIdenticalAt1And4Threads) {
  const auto dataset =
      apots::traffic::GenerateDataset(apots::traffic::DatasetSpec::Small(3));
  const auto split = apots::data::MakeSplit(
      dataset, 12, 3, 0.2, apots::data::SplitStrategy::kBlockedByDay, 11);
  const std::vector<long> anchors(
      split.train.begin(),
      split.train.begin() + std::min<size_t>(192, split.train.size()));

  const TrainedWeights serial =
      TrainAtPoolSize(dataset, anchors, /*pool_size=*/1, /*micro_batch=*/8);
  const TrainedWeights parallel =
      TrainAtPoolSize(dataset, anchors, /*pool_size=*/4, /*micro_batch=*/8);

  EXPECT_EQ(serial.report.epochs_completed, parallel.report.epochs_completed);
  ASSERT_EQ(serial.params.size(), parallel.params.size());
  for (size_t p = 0; p < serial.params.size(); ++p) {
    ExpectBitIdentical(serial.params[p], parallel.params[p],
                       "trained predictor weights");
  }
}

TEST_F(PoolSizeSweep, ShardedStepTracksFullBatchStep) {
  // micro_batch changes only float summation grouping, so one guarded run
  // with sharding should land very near the unsharded run — a sanity
  // bound, not a bitwise claim.
  const auto dataset =
      apots::traffic::GenerateDataset(apots::traffic::DatasetSpec::Small(3));
  const auto split = apots::data::MakeSplit(
      dataset, 12, 3, 0.2, apots::data::SplitStrategy::kBlockedByDay, 11);
  const std::vector<long> anchors(
      split.train.begin(),
      split.train.begin() + std::min<size_t>(96, split.train.size()));

  const TrainedWeights full =
      TrainAtPoolSize(dataset, anchors, /*pool_size=*/1, /*micro_batch=*/0);
  const TrainedWeights sharded =
      TrainAtPoolSize(dataset, anchors, /*pool_size=*/1, /*micro_batch=*/8);
  ASSERT_EQ(full.params.size(), sharded.params.size());
  double max_abs_diff = 0.0;
  for (size_t p = 0; p < full.params.size(); ++p) {
    ASSERT_TRUE(full.params[p].SameShape(sharded.params[p]));
    for (size_t i = 0; i < full.params[p].size(); ++i) {
      max_abs_diff = std::max(
          max_abs_diff, static_cast<double>(std::fabs(full.params[p][i] -
                                                      sharded.params[p][i])));
    }
  }
  EXPECT_LT(max_abs_diff, 0.05);
}

}  // namespace
}  // namespace apots

// Bitwise-equivalence and accounting tests for the batched inference
// runtime: batched predictions must equal a per-anchor loop over the
// recorded training forward bit for bit at any batch size, pool size,
// and cache temperature, for every predictor family; fallback counts must
// not depend on whether the batch grid was walked serially or in
// parallel.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/apots_model.h"
#include "data/windowing.h"
#include "traffic/dataset_generator.h"
#include "traffic/fault_injector.h"
#include "util/thread_pool.h"

namespace apots::core {
namespace {

struct Env {
  traffic::TrafficDataset dataset;
  std::vector<long> train;
  std::vector<long> test;

  Env() : dataset(traffic::GenerateDataset(traffic::DatasetSpec::Small(3))) {
    auto split = data::MakeSplit(dataset, 12, 3, 0.2,
                                 data::SplitStrategy::kBlockedByDay, 11);
    train = split.train;
    test.assign(split.test.begin(),
                split.test.begin() + std::min<size_t>(48, split.test.size()));
  }
};

Env& GetEnv() {
  static Env* env = new Env();
  return *env;
}

ApotsConfig ConfigFor(PredictorType type) {
  ApotsConfig config;
  config.predictor = PredictorHparams::Scaled(type, 2);
  config.features = data::FeatureConfig::Both();
  config.features.num_adjacent = 1;  // the Small dataset has 3 roads
  config.features.beta = 3;
  config.seed = 99;
  return config;
}

// The bitwise reference: one recorded fp32 training forward per anchor,
// outside the runtime.
std::vector<double> ReferenceKmh(ApotsModel& model,
                                 const std::vector<long>& anchors) {
  std::vector<double> out;
  for (const long anchor : anchors) {
    const Tensor pred = model.predictor().Forward(
        model.assembler().BatchMatrix({anchor}), /*training=*/false);
    out.push_back(model.assembler().UnscaleSpeed(pred[0]));
  }
  return out;
}

// Exact double comparison on purpose: the contract is bitwise identity,
// not tolerance-level agreement.
void ExpectIdentical(const std::vector<double>& got,
                     const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " diverges at anchor " << i;
  }
}

TEST(InferenceRuntimeTest, BatchGridCoversAnchorsInAscendingOrder) {
  Env& env = GetEnv();
  ApotsModel model(&env.dataset, ConfigFor(PredictorType::kFc));
  for (size_t batch_size : {1u, 7u, 64u, 1000u}) {
    InferenceConfig cfg;
    cfg.batch_size = batch_size;
    model.SetInferenceConfig(cfg);
    InferenceRuntime& rt = model.inference_runtime();

    const size_t count = 48;
    size_t expected_index = 0;
    size_t expected_lo = 0;
    rt.ForEachBatch(count, [&](size_t index, size_t lo, size_t hi) {
      EXPECT_EQ(index, expected_index);
      EXPECT_EQ(lo, expected_lo);
      EXPECT_GT(hi, lo);
      EXPECT_LE(hi - lo, batch_size);
      expected_index += 1;
      expected_lo = hi;
    });
    EXPECT_EQ(expected_lo, count);
    EXPECT_EQ(expected_index, rt.NumBatches(count));
  }
}

TEST(InferenceRuntimeTest, AssembleBatchIntoMatchesBatchMatrix) {
  Env& env = GetEnv();
  ApotsModel model(&env.dataset, ConfigFor(PredictorType::kFc));
  const data::FeatureAssembler& assembler = model.assembler();
  const Tensor want = assembler.BatchMatrix(env.test);

  const std::vector<size_t> shape{env.test.size(),
                                  static_cast<size_t>(assembler.NumRows()),
                                  static_cast<size_t>(assembler.alpha())};
  // Uncached, then cold cache, then warm cache — all bitwise equal, even
  // into a dirty destination buffer.
  data::FeatureCache cache(4096);
  data::FeatureCache* caches[] = {nullptr, &cache, &cache};
  for (data::FeatureCache* c : caches) {
    Tensor got = Tensor::Full(shape, -123.0f);
    assembler.AssembleBatchInto(env.test.data(), env.test.size(), c, &got);
    ASSERT_EQ(got.shape(), want.shape());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "element " << i << (c ? " (cached)" : " (uncached)");
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);  // the overlap actually got exploited
}

TEST(InferenceRuntimeTest, BatchedMatchesPerAnchorBitwiseAllPredictors) {
  Env& env = GetEnv();
  const PredictorType types[] = {PredictorType::kFc, PredictorType::kLstm,
                                 PredictorType::kCnn, PredictorType::kHybrid};
  for (PredictorType type : types) {
    ApotsModel model(&env.dataset, ConfigFor(type));
    const std::vector<double> baseline = ReferenceKmh(model, env.test);

    struct Arm {
      const char* name;
      size_t batch_size;
      size_t threads;
    };
    const Arm arms[] = {
        {"batch1_1t", 1, 1},
        {"batch2_1t", 2, 1},
        {"batch7_1t", 7, 1},
        {"batch16_1t", 16, 1},
        {"batch17_1t", 17, 1},
        {"batch64_1t", 64, 1},
        {"batch65_1t", 65, 1},
        {"batch7_4t", 7, 4},
        {"batch64_4t", 64, 4},
    };
    for (const Arm& arm : arms) {
      ResetGlobalPool(arm.threads);
      InferenceConfig cfg;
      cfg.batch_size = arm.batch_size;
      model.SetInferenceConfig(cfg);  // cold cache, fresh arenas
      ExpectIdentical(model.PredictKmh(env.test), baseline, arm.name);
      // Second pass: warm feature cache and recycled arena slots.
      ExpectIdentical(model.PredictKmh(env.test), baseline, arm.name);
    }
    ResetGlobalPool(1);
  }
}

TEST(InferenceRuntimeTest, SteadyStateStopsGrowingTheArena) {
  Env& env = GetEnv();
  ApotsModel model(&env.dataset, ConfigFor(PredictorType::kLstm));
  (void)model.PredictKmh(env.test);  // warm-up sizes every slot
  const size_t high_water =
      model.inference_runtime().workspace_high_water_floats();
  EXPECT_GT(high_water, 0u);
  for (int round = 0; round < 3; ++round) (void)model.PredictKmh(env.test);
  EXPECT_EQ(model.inference_runtime().workspace_high_water_floats(),
            high_water);
}

TEST(InferenceRuntimeTest, MaskChangeInvalidatesFeatureCache) {
  Env& env = GetEnv();
  ApotsModel model(&env.dataset, ConfigFor(PredictorType::kFc));
  (void)model.PredictKmh(env.test);
  data::FeatureCache* cache = model.inference_runtime().feature_cache();
  EXPECT_GT(cache->size(), 0u);
  model.SetValidityMask(nullptr);
  EXPECT_EQ(cache->size(), 0u);
}

TEST(InferenceRuntimeTest, FallbackCountIndependentOfBatchGridAndThreads) {
  Env& env = GetEnv();
  ApotsConfig config = ConfigFor(PredictorType::kFc);
  config.fallback.enabled = true;
  config.fallback.min_validity_ratio = 0.9;
  ApotsModel model(&env.dataset, config);

  // Knock out the target road's speed row over the windows of the first
  // dozen test anchors: their validity ratio drops to ~2/3 < 0.9 while the
  // train targets stay observed, so exactly those anchors fall back.
  traffic::ValidityMask mask(env.dataset.num_roads(),
                             env.dataset.num_intervals());
  const long alpha = 12;
  const long first = env.test.front() - alpha + 1;
  const long last = env.test[11];
  const int target_road = model.assembler().target_road();
  for (long t = first; t <= last; ++t) mask.Set(target_road, t, false);
  model.SetValidityMask(&mask);
  model.FitFallback(env.train);

  InferenceConfig per_anchor;
  per_anchor.batch_size = 1;
  model.SetInferenceConfig(per_anchor);
  const std::vector<double> baseline = model.PredictKmh(env.test);
  const size_t baseline_fallbacks = model.last_fallback_count();
  EXPECT_GT(baseline_fallbacks, 0u);
  EXPECT_LT(baseline_fallbacks, env.test.size());

  for (size_t batch_size : {7u, 64u}) {
    for (size_t threads : {1u, 4u}) {
      ResetGlobalPool(threads);
      InferenceConfig cfg;
      cfg.batch_size = batch_size;
      model.SetInferenceConfig(cfg);
      ExpectIdentical(model.PredictKmh(env.test), baseline, "fallback arm");
      EXPECT_EQ(model.last_fallback_count(), baseline_fallbacks)
          << "batch_size=" << batch_size << " threads=" << threads;
    }
  }
  ResetGlobalPool(1);
}

double MeanAbsDiff(const std::vector<double>& a,
                   const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum / static_cast<double>(a.size());
}

TEST(InferenceRuntimeTest, QuantizedPredictTracksFp32WithinMae) {
  // End-to-end accuracy contract (DESIGN.md §15): quantized serving must
  // cost at most 0.5 km/h of true MAE vs the fp32 arm — quantization
  // noise is near-zero-mean, so the accuracy delta stays far below the
  // raw prediction drift — and stay deterministic across pool sizes.
  Env& env = GetEnv();
  const PredictorType types[] = {PredictorType::kFc, PredictorType::kLstm};
  for (PredictorType type : types) {
    ApotsModel model(&env.dataset, ConfigFor(type));
    const std::vector<double> truth = model.TrueKmh(env.test);
    const std::vector<double> fp32 = model.PredictKmh(env.test);
    const double fp32_mae = MeanAbsDiff(fp32, truth);
    for (tensor::QuantMode mode :
         {tensor::QuantMode::kInt8, tensor::QuantMode::kFp16}) {
      InferenceConfig cfg;
      cfg.quantize = mode;
      model.SetInferenceConfig(cfg);
      const std::vector<double> quant = model.PredictKmh(env.test);
      EXPECT_LE(std::fabs(MeanAbsDiff(quant, truth) - fp32_mae), 0.5)
          << PredictorTypeLabel(type) << " " << tensor::QuantModeName(mode);
      // Coarse drift bound: a broken kernel diverges by whole km/h.
      EXPECT_LE(MeanAbsDiff(quant, fp32), 2.0)
          << PredictorTypeLabel(type) << " " << tensor::QuantModeName(mode);
      ResetGlobalPool(4);
      ExpectIdentical(model.PredictKmh(env.test), quant,
                      tensor::QuantModeName(mode));
      ResetGlobalPool(1);
    }
    // Returning to kOff must drop the packed copies: predictions revert
    // to the exact fp32 stream, not quantized math under an fp32 label.
    model.SetInferenceConfig(InferenceConfig());
    ExpectIdentical(model.PredictKmh(env.test), fp32, "back to fp32");
  }
}

TEST(InferenceRuntimeTest, QuantizedPacksRefreshOnWeightMutation) {
  // Weights arriving via CopyWeightsFrom must re-pack the quantized
  // copies; serving stale packs from the old weights would diverge by the
  // across-seed prediction gap, far beyond quantization noise.
  Env& env = GetEnv();
  ApotsConfig src_cfg = ConfigFor(PredictorType::kFc);
  src_cfg.seed = 7;
  ApotsModel source(&env.dataset, src_cfg);
  const std::vector<double> fp32 = source.PredictKmh(env.test);

  ApotsConfig dst_cfg = ConfigFor(PredictorType::kFc);
  dst_cfg.seed = 1234;  // different init: stale packs would show
  dst_cfg.inference.quantize = tensor::QuantMode::kInt8;
  ApotsModel dest(&env.dataset, dst_cfg);
  const std::vector<double> before_copy = dest.PredictKmh(env.test);
  // The discrimination premise: the two seeds actually predict apart by
  // more than the stale-pack tolerance below.
  ASSERT_GT(MeanAbsDiff(before_copy, fp32), 2.0);
  ASSERT_TRUE(dest.CopyWeightsFrom(source).ok());
  EXPECT_LE(MeanAbsDiff(dest.PredictKmh(env.test), fp32), 2.0);
}

TEST(InferenceRuntimeTest, SecondaryRuntimeLeavesServedPrecisionIntact) {
  // The model owns the served precision: a runtime built elsewhere on its
  // predictor (as Attacker and RdatDefense do) reads the int8 packs the
  // model prepared and cannot re-pack them.
  Env& env = GetEnv();
  ApotsConfig config = ConfigFor(PredictorType::kFc);
  config.inference.quantize = tensor::QuantMode::kInt8;
  ApotsModel model(&env.dataset, config);
  const std::vector<double> served = model.PredictKmh(env.test);

  InferenceRuntime secondary(&model.predictor(), &model.assembler(),
                             model.config().inference.batch_size);
  const Tensor scaled = secondary.Predict(env.test);
  std::vector<double> secondary_kmh;
  for (size_t i = 0; i < env.test.size(); ++i) {
    secondary_kmh.push_back(model.assembler().UnscaleSpeed(scaled[i]));
  }
  ExpectIdentical(secondary_kmh, served, "secondary runtime");
  ExpectIdentical(model.PredictKmh(env.test), served, "served after");
}

TEST(InferenceConfigGuardTest, ValidateRejectsDegenerateConfigs) {
  InferenceConfig zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_EQ(ValidateInferenceConfig(zero_batch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateInferenceConfig(InferenceConfig()).ok());
}

TEST(InferenceConfigGuardTest, SanitizeClampsInsteadOfCrashing) {
  InferenceConfig degenerate;
  degenerate.batch_size = 0;
  const InferenceConfig fixed = SanitizeInferenceConfig(degenerate);
  EXPECT_EQ(fixed.batch_size, 1u);
  EXPECT_TRUE(ValidateInferenceConfig(fixed).ok());
}

TEST(InferenceConfigGuardTest, DegenerateConfigStillPredictsIdentically) {
  // A runtime built from batch_size=0 must serve (via the sanitized
  // config) and stay on the bitwise contract.
  Env& env = GetEnv();
  ApotsModel model(&env.dataset, ConfigFor(PredictorType::kFc));
  const std::vector<double> baseline = ReferenceKmh(model, env.test);

  InferenceConfig degenerate;
  degenerate.batch_size = 0;
  model.SetInferenceConfig(degenerate);
  ExpectIdentical(model.PredictKmh(env.test), baseline, "sanitized arm");
}

}  // namespace
}  // namespace apots::core

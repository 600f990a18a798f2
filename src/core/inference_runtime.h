#ifndef APOTS_CORE_INFERENCE_RUNTIME_H_
#define APOTS_CORE_INFERENCE_RUNTIME_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/predictor.h"
#include "data/context.h"
#include "data/feature_cache.h"
#include "data/features.h"
#include "tensor/workspace.h"
#include "util/status.h"

namespace apots::core {

/// How an ApotsModel serves. Under `quantize == kOff` every batch size
/// produces bitwise identical predictions — it trades only speed and
/// memory. Reduced-precision modes trade bitwise equality for a benched
/// accuracy band (MAE delta vs fp32 gated in CI).
struct InferenceConfig {
  /// Anchors packed into one predictor forward.
  size_t batch_size = 64;
  /// Inference weight precision (tensor::QuantMode). The model packs its
  /// predictor's matmul weights when it takes the config and after every
  /// weight mutation; runtimes never see it.
  apots::tensor::QuantMode quantize = apots::tensor::QuantMode::kOff;
};

/// Rejects `batch_size == 0` (the batch grid divides by it) with an
/// InvalidArgument naming the field.
Status ValidateInferenceConfig(const InferenceConfig& config);

/// Clamps `batch_size` 0 to 1 instead of rejecting. The result always
/// passes ValidateInferenceConfig.
InferenceConfig SanitizeInferenceConfig(InferenceConfig config);

/// One inference work item: an anchor plus the counterfactual context it
/// should be evaluated under. Context 0 (the default) is the live/base
/// stream; nonzero ids resolve through the attached data::ContextTable
/// (unknown ids fall back to base and are counted, never rejected — the
/// serving plane must degrade, not fail, on a stale registration).
struct WorkItem {
  long anchor = 0;
  uint64_t context = 0;
};

/// Batched multi-anchor inference engine: packs anchor windows into
/// [batch_size, rows, alpha] tensors, assembles them through a feature
/// cache, forwards whole batches through the predictor's inference
/// forward on workspace arenas, and shards batches across the global
/// ThreadPool whenever it has more than one thread. Deterministic contract
/// (see DESIGN.md §10): the batch grid depends only on (N, batch_size),
/// every batch owns a disjoint output range, and the inference forward
/// runs the training forward's body — so fp32 predictions match a
/// per-anchor training-forward loop bit for bit at any batch size, pool
/// size, and cache temperature.
///
/// The predictor and assembler are borrowed and must outlive the runtime.
/// The runtime only reads the predictor and serves whatever precision its
/// owner prepared (see ApotsModel::SetInferenceConfig), so any number of
/// runtimes on one predictor compute the same answers. Predict must not
/// run concurrently with training steps on the same predictor (training
/// mutates weights); concurrent Predict calls are safe.
class InferenceRuntime {
 public:
  /// Feature-cache entries (per-interval columns) kept before LRU eviction.
  static constexpr size_t kFeatureCacheCapacity = 8192;

  /// Packs `batch_size` (positive) anchors into each predictor forward.
  InferenceRuntime(const Predictor* predictor,
                   const apots::data::FeatureAssembler* assembler,
                   size_t batch_size);

  /// Scaled predictions for `anchors` as an [N, 1] tensor.
  Tensor Predict(const std::vector<long>& anchors);

  /// Heterogeneous (anchor, context) batch — the counterfactual what-if
  /// fan-out path. Items ride the identical deterministic batch grid and
  /// per-worker arenas as Predict (disjoint output rows, zero-alloc in
  /// steady state); a batch simply mixes contexts at assembly time. A
  /// batch whose items are all context 0 takes the exact Predict code
  /// path, so enabling what-if wiring leaves live serving bitwise
  /// unchanged.
  Tensor PredictItems(const std::vector<WorkItem>& items);

  /// Attaches the counterfactual context registry (borrowed, may be null
  /// to detach). Without a table every nonzero context resolves to base.
  void SetContextTable(const apots::data::ContextTable* table) {
    context_table_ = table;
  }
  const apots::data::ContextTable* context_table() const {
    return context_table_;
  }
  /// Items whose nonzero context id found no registration and fell back
  /// to base (cumulative).
  uint64_t unknown_context_items() const { return unknown_context_items_; }

  /// Number of batches the deterministic grid carves `count` anchors into.
  size_t NumBatches(size_t count) const;

  /// Walks the batch grid serially in ascending batch order, calling
  /// `fn(batch_index, lo, hi)` for each half-open anchor range [lo, hi).
  /// Exposed so callers that aggregate per-anchor results (e.g. fallback
  /// accounting) can mirror the grid independent of worker scheduling.
  void ForEachBatch(size_t count,
                    const std::function<void(size_t, size_t, size_t)>& fn)
      const;

  /// Drops cached feature columns. Callers that mutate the assembler's
  /// dataset must call it before the next Predict.
  void InvalidateCache();

  apots::data::FeatureCache* feature_cache() { return &cache_; }
  /// Arena high-water mark of worker 0 (diagnostics; 0 before first use).
  size_t workspace_high_water_floats() const;

 private:
  /// Shared batched-inference core: `contexts` is either null (pure base
  /// batch) or one ResolvedContext per anchor.
  Tensor PredictImpl(const long* anchors,
                     const apots::data::ResolvedContext* contexts,
                     size_t count);

  const Predictor* predictor_;                      // not owned
  const apots::data::FeatureAssembler* assembler_;  // not owned
  const apots::data::ContextTable* context_table_ = nullptr;  // not owned
  uint64_t unknown_context_items_ = 0;
  size_t batch_size_;
  apots::data::FeatureCache cache_{kFeatureCacheCapacity};
  /// Per-ThreadPool-worker arenas, grown on the main thread before any
  /// parallel region so workers never mutate the vector concurrently.
  std::vector<std::unique_ptr<apots::tensor::Workspace>> workspaces_;
};

}  // namespace apots::core

#endif  // APOTS_CORE_INFERENCE_RUNTIME_H_

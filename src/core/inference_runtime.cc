#include "core/inference_runtime.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace apots::core {

using apots::tensor::Tensor;
using apots::tensor::Workspace;

namespace {

/// Inference-path instruments (DESIGN.md §12). Pre-registered once; the
/// per-call and per-batch hot paths touch only the cached references.
struct InferMetrics {
  obs::Histogram& predict_ms;
  obs::Histogram& batch_ms;
  obs::Counter& anchors;
  obs::Counter& batches;
  static InferMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Default();
    static InferMetrics* metrics = new InferMetrics{
        registry.GetHistogram("infer.predict_ms"),
        registry.GetHistogram("infer.batch_ms"),
        registry.GetCounter("infer.anchors"),
        registry.GetCounter("infer.batches"),
    };
    return *metrics;
  }
};

}  // namespace

Status ValidateInferenceConfig(const InferenceConfig& config) {
  if (config.batch_size == 0) {
    return Status::InvalidArgument(
        "InferenceConfig.batch_size must be positive (the batch grid "
        "divides the anchor count by it)");
  }
  return Status::Ok();
}

InferenceConfig SanitizeInferenceConfig(InferenceConfig config) {
  if (config.batch_size == 0) {
    APOTS_LOG(Warning)
        << "InferenceConfig.batch_size of 0 clamped to 1 (per-anchor)";
    config.batch_size = 1;
  }
  return config;
}

InferenceRuntime::InferenceRuntime(
    const Predictor* predictor, const apots::data::FeatureAssembler* assembler,
    size_t batch_size)
    : predictor_(predictor), assembler_(assembler), batch_size_(batch_size) {
  APOTS_CHECK(predictor != nullptr);
  APOTS_CHECK(assembler != nullptr);
  APOTS_CHECK_GT(batch_size, 0u);
}

size_t InferenceRuntime::NumBatches(size_t count) const {
  return (count + batch_size_ - 1) / batch_size_;
}

void InferenceRuntime::ForEachBatch(
    size_t count,
    const std::function<void(size_t, size_t, size_t)>& fn) const {
  const size_t num_batches = NumBatches(count);
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t lo = b * batch_size_;
    const size_t hi = std::min(count, lo + batch_size_);
    fn(b, lo, hi);
  }
}

void InferenceRuntime::InvalidateCache() { cache_.Invalidate(); }

size_t InferenceRuntime::workspace_high_water_floats() const {
  return workspaces_.empty() ? 0 : workspaces_[0]->high_water_floats();
}

Tensor InferenceRuntime::Predict(const std::vector<long>& anchors) {
  return PredictImpl(anchors.data(), /*contexts=*/nullptr, anchors.size());
}

Tensor InferenceRuntime::PredictItems(const std::vector<WorkItem>& items) {
  std::vector<long> anchors(items.size());
  std::vector<apots::data::ResolvedContext> contexts(items.size());
  // Keep resolved specs alive across the whole call: Find hands out
  // shared ownership so a concurrent re-registration cannot free a spec
  // mid-assembly.
  std::vector<std::shared_ptr<const apots::data::ContextSpec>> pins;
  pins.reserve(items.size());
  bool any_context = false;
  for (size_t i = 0; i < items.size(); ++i) {
    anchors[i] = items[i].anchor;
    contexts[i].id = 0;
    if (items[i].context != 0) {
      auto spec = context_table_ == nullptr
                      ? nullptr
                      : context_table_->Find(items[i].context);
      if (spec == nullptr) {
        // Unknown (or table-less) context: degrade to base, loudly in the
        // counter but never by failing the request.
        ++unknown_context_items_;
      } else {
        contexts[i].id = items[i].context;
        contexts[i].spec = spec.get();
        pins.push_back(std::move(spec));
        any_context = true;
      }
    }
  }
  // A pure-base item set takes the exact Predict code path (null contexts
  // array), so live traffic through this entry point stays bitwise
  // unchanged — the context-0 identity the serving gates enforce.
  return PredictImpl(anchors.data(), any_context ? contexts.data() : nullptr,
                     items.size());
}

Tensor InferenceRuntime::PredictImpl(
    const long* anchors, const apots::data::ResolvedContext* contexts,
    size_t count) {
  Tensor out({count, 1});
  if (count == 0) return out;
  obs::TraceSpan span("infer.predict");
  obs::ScopedTimer call_timer(InferMetrics::Get().predict_ms);
  InferMetrics::Get().anchors.Add(count);

  const size_t rows = static_cast<size_t>(assembler_->NumRows());
  const size_t alpha = static_cast<size_t>(assembler_->alpha());
  const size_t num_batches = NumBatches(count);

  apots::ThreadPool& pool = apots::GlobalPool();
  const bool parallel = pool.num_threads() > 1 && num_batches > 1;
  // Grow the arena set on this thread before entering the parallel region;
  // workers then only touch their own slot.
  const size_t num_workers = parallel ? pool.num_threads() : 1;
  while (workspaces_.size() < num_workers) {
    workspaces_.push_back(std::make_unique<Workspace>());
  }

  const auto run_batch = [&](size_t lo, size_t hi, size_t worker) {
    obs::TraceSpan batch_span("infer.batch");
    obs::ScopedTimer batch_timer(InferMetrics::Get().batch_ms);
    InferMetrics::Get().batches.Add();
    Workspace* ws = workspaces_[worker].get();
    ws->Reset();
    Tensor* inputs = ws->Acquire({hi - lo, rows, alpha});
    assembler_->AssembleBatchInto(
        anchors + lo, contexts == nullptr ? nullptr : contexts + lo,
        hi - lo, &cache_, inputs);
    const Tensor* outputs =
        predictor_->Forward(*inputs, /*training=*/false, ws);
    // Disjoint output range per batch: writes never race and land at the
    // same position regardless of which worker ran the batch.
    std::copy(outputs->data(), outputs->data() + (hi - lo), out.data() + lo);
  };

  if (!parallel) {
    ForEachBatch(count,
                 [&](size_t, size_t lo, size_t hi) { run_batch(lo, hi, 0); });
    return out;
  }
  pool.ParallelFor(0, num_batches, 1, [&](size_t b0, size_t b1,
                                          size_t worker) {
    for (size_t b = b0; b < b1; ++b) {
      const size_t lo = b * batch_size_;
      const size_t hi = std::min(count, lo + batch_size_);
      run_batch(lo, hi, worker);
    }
  });
  return out;
}

}  // namespace apots::core

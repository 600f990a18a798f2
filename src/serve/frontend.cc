#include "serve/frontend.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "core/apots_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace apots::serve {

namespace {

/// Front-door instruments (DESIGN.md §12/§14): admission, shedding,
/// coalescing, and queueing health.
struct FrontendMetrics {
  obs::Gauge& queue_depth;
  obs::Counter& submitted;
  obs::Counter& served;
  obs::Counter& coalesce_hits;
  obs::Counter& shed_overload;
  obs::Counter& shed_deadline;
  obs::Counter& deadline_misses;
  obs::Counter& inference_calls;
  obs::Histogram& queue_ms;
  obs::Histogram& latency_ms;
  static FrontendMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Default();
    static FrontendMetrics* metrics = new FrontendMetrics{
        registry.GetGauge("frontend.queue_depth"),
        registry.GetCounter("frontend.submitted"),
        registry.GetCounter("frontend.served"),
        registry.GetCounter("frontend.coalesce_hits"),
        registry.GetCounter("frontend.shed_overload"),
        registry.GetCounter("frontend.shed_deadline"),
        registry.GetCounter("frontend.deadline_misses"),
        registry.GetCounter("frontend.inference_calls"),
        registry.GetHistogram("frontend.queue_ms"),
        registry.GetHistogram("frontend.latency_ms"),
    };
    return *metrics;
  }
};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FrontendConfig SanitizeFrontendConfig(FrontendConfig config) {
  if (config.queue_capacity < 2) config.queue_capacity = 2;
  if (config.max_batch == 0) config.max_batch = 1;
  if (config.default_deadline_ms < 0.0) config.default_deadline_ms = 0.0;
  if (config.idle_sleep_us < 0.0) config.idle_sleep_us = 0.0;
  return config;
}

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kServed:
      return "served";
    case RequestOutcome::kCoalesced:
      return "coalesced";
    case RequestOutcome::kShedDeadline:
      return "shed-deadline";
    case RequestOutcome::kShedOverload:
      return "shed-overload";
  }
  return "unknown";
}

Frontend::Frontend(ServingSupervisor* supervisor, FrontendConfig config)
    : supervisor_(supervisor),
      config_(SanitizeFrontendConfig(config)),
      beta_(0),
      queue_(config_.queue_capacity) {
  APOTS_CHECK(supervisor != nullptr);
  beta_ = supervisor_->model().assembler().beta();
  // Inherit the supervisor's injected clock so the admission-deadline path
  // and the serving path agree on "now" under chaos clock skew; an explicit
  // set_clock_for_test still overrides this.
  if (!clock_ && supervisor_->config().now_ns) {
    clock_ = supervisor_->config().now_ns;
  }
  if (config_.background) {
    thread_ = std::thread([this] { Run(); });
  }
}

Frontend::~Frontend() { Stop(); }

int64_t Frontend::NowNs() const {
  return clock_ ? clock_() : SteadyNowNs();
}

ServeResponse Frontend::LadderAnswer(long anchor) const {
  // The shed tier: the time-of-day profile, which after Fit reads only
  // its own table plus the dataset's immutable calendar — never the live
  // speed cells the ingestor mutates — so producers can compute it at
  // admission while the consumer runs inference.
  const auto& dataset = supervisor_->model().assembler().dataset();
  ServeResponse response;
  response.tier = ServeTier::kHistorical;
  const long intervals = dataset.num_intervals();
  if (intervals > 0) {
    const long target =
        std::min(std::max(anchor + beta_, 0L), intervals - 1);
    response.kmh = supervisor_->fallback().Predict(dataset, target);
  }
  return response;
}

void Frontend::Complete(PendingResponse* pending,
                        const ServeResponse& serve, RequestOutcome outcome,
                        int64_t drained_ns, int64_t done_ns) {
  pending->response_.serve = serve;
  pending->response_.outcome = outcome;
  pending->response_.queue_ms =
      static_cast<double>(drained_ns - pending->enqueue_ns) / 1e6;
  pending->response_.total_ms =
      static_cast<double>(done_ns - pending->enqueue_ns) / 1e6;
  pending->ready_.store(true, std::memory_order_release);
  pending->ready_.notify_all();
  auto& metrics = FrontendMetrics::Get();
  metrics.queue_ms.Record(pending->response_.queue_ms);
  if (outcome == RequestOutcome::kServed ||
      outcome == RequestOutcome::kCoalesced) {
    // Sheds are answered in O(1); folding them into the latency
    // distribution would make overload look fast. They are counted, not
    // timed.
    metrics.latency_ms.Record(pending->response_.total_ms);
  }
}

std::shared_ptr<PendingResponse> Frontend::SubmitAsync(
    const FrontendRequest& request) {
  auto pending = std::make_shared<PendingResponse>();
  pending->request_ = request;
  if (pending->request_.deadline_ms < 0.0) {
    pending->request_.deadline_ms = config_.default_deadline_ms;
  }
  pending->enqueue_ns = NowNs();
  pending->deadline_ns =
      pending->request_.deadline_ms > 0.0
          ? pending->enqueue_ns +
                static_cast<int64_t>(pending->request_.deadline_ms * 1e6)
          : 0;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  auto& metrics = FrontendMetrics::Get();
  metrics.submitted.Add();

  const bool admitted = !stopped_.load(std::memory_order_acquire) &&
                        queue_.TryPush(pending);
  if (!admitted) {
    // Admission control: never block, never buffer beyond the ring —
    // answer from the ladder right here on the producer thread.
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    metrics.shed_overload.Add();
    Complete(pending.get(), LadderAnswer(request.anchor),
             RequestOutcome::kShedOverload, pending->enqueue_ns, NowNs());
    return pending;
  }

  const size_t depth = depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics.queue_depth.Set(static_cast<double>(depth));
  uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
  return pending;
}

FrontendResponse Frontend::Submit(const FrontendRequest& request) {
  return SubmitAsync(request)->Wait();
}

size_t Frontend::RunCycle() {
  std::vector<std::shared_ptr<PendingResponse>> drained;
  drained.reserve(config_.max_batch);
  std::shared_ptr<PendingResponse> item;
  while (drained.size() < config_.max_batch && queue_.TryPop(&item)) {
    drained.push_back(std::move(item));
  }
  if (drained.empty()) return 0;
  depth_.fetch_sub(drained.size(), std::memory_order_relaxed);
  auto& metrics = FrontendMetrics::Get();
  metrics.queue_depth.Set(
      static_cast<double>(depth_.load(std::memory_order_relaxed)));
  cycles_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceSpan span("frontend.cycle");

  const int64_t drained_ns = NowNs();

  // Deadline propagation, half one: a request already past its deadline
  // is answered from the ladder instead of occupying a batch slot.
  // Coalescing: first-arrival order of (anchor, context) keys; duplicates
  // attach to their key's group and share the inference below. Contexts
  // ride the same machinery — a counterfactual request simply carries its
  // context id into the supervisor's heterogeneous batch.
  std::vector<apots::core::WorkItem> work;
  std::vector<std::vector<std::shared_ptr<PendingResponse>>> groups;
  std::map<std::pair<long, uint64_t>, size_t> key_index;
  int64_t tightest_deadline_ns = 0;
  for (auto& pending : drained) {
    if (pending->deadline_ns > 0 && drained_ns > pending->deadline_ns) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed_deadline.Add();
      metrics.deadline_misses.Add();
      Complete(pending.get(), LadderAnswer(pending->request_.anchor),
               RequestOutcome::kShedDeadline, drained_ns, NowNs());
      continue;
    }
    if (pending->deadline_ns > 0 &&
        (tightest_deadline_ns == 0 ||
         pending->deadline_ns < tightest_deadline_ns)) {
      tightest_deadline_ns = pending->deadline_ns;
    }
    const std::pair<long, uint64_t> key{pending->request_.anchor,
                                        pending->request_.context};
    auto [it, inserted] = key_index.try_emplace(key, groups.size());
    if (inserted) {
      work.push_back({pending->request_.anchor, pending->request_.context});
      groups.emplace_back();
    }
    groups[it->second].push_back(std::move(pending));
  }

  if (!work.empty()) {
    // Deadline propagation, half two: the batch runs under the tightest
    // surviving request budget so the supervisor's EMA pre-degradation
    // can keep the whole batch honest. No request deadlines -> the
    // supervisor's own configured budget applies unchanged.
    std::vector<ServeResponse> responses;
    if (tightest_deadline_ns > 0) {
      const double remaining_ms = std::max(
          0.001,
          static_cast<double>(tightest_deadline_ns - drained_ns) / 1e6);
      responses = supervisor_->PredictItems(work, remaining_ms);
    } else {
      responses = supervisor_->PredictItems(work);
    }
    inference_calls_.fetch_add(1, std::memory_order_relaxed);
    inferred_keys_.fetch_add(work.size(), std::memory_order_relaxed);
    metrics.inference_calls.Add();
    const int64_t done_ns = NowNs();
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t j = 0; j < groups[g].size(); ++j) {
        // Fan-out copies the double unchanged: every coalesced caller
        // gets bits identical to the slot owner's.
        const RequestOutcome outcome = j == 0
                                           ? RequestOutcome::kServed
                                           : RequestOutcome::kCoalesced;
        if (j == 0) {
          served_.fetch_add(1, std::memory_order_relaxed);
          metrics.served.Add();
        } else {
          coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
          metrics.coalesce_hits.Add();
        }
        Complete(groups[g][j].get(), responses[g], outcome, drained_ns,
                 done_ns);
      }
    }
  }
  return drained.size();
}

void Frontend::Run() {
  int idle_spins = 0;
  while (!quit_.load(std::memory_order_acquire)) {
    if (RunCycle() > 0) {
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < 64) {
      std::this_thread::yield();
    } else if (config_.idle_sleep_us > 0.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(config_.idle_sleep_us)));
    }
  }
}

void Frontend::Stop() {
  stopped_.store(true, std::memory_order_release);
  quit_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  // Answer stragglers so no waiter hangs; the supervisor is still valid
  // (it outlives the frontend by contract), so they are served normally.
  while (RunCycle() > 0) {
  }
}

FrontendStats Frontend::stats() const {
  FrontendStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.served = served_.load(std::memory_order_relaxed);
  stats.coalesce_hits = coalesce_hits_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  stats.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  stats.cycles = cycles_.load(std::memory_order_relaxed);
  stats.inference_calls =
      inference_calls_.load(std::memory_order_relaxed);
  stats.inferred_keys = inferred_keys_.load(std::memory_order_relaxed);
  stats.max_queue_depth =
      max_queue_depth_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace apots::serve

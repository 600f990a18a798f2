#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace apots {

namespace {

/// Pool health instruments (see DESIGN.md §12). Handles are resolved once
/// and shared by every pool instance: the registry is process-wide, like
/// the global pool the metrics describe.
struct PoolMetrics {
  obs::Counter& regions;
  obs::Counter& chunks;
  obs::Counter& inline_runs;
  obs::Gauge& queue_depth;
  static PoolMetrics& Get() {
    static PoolMetrics* metrics = new PoolMetrics{
        obs::MetricsRegistry::Default().GetCounter("pool.regions"),
        obs::MetricsRegistry::Default().GetCounter("pool.chunks"),
        obs::MetricsRegistry::Default().GetCounter("pool.inline_runs"),
        obs::MetricsRegistry::Default().GetGauge("pool.queue_depth"),
    };
    return *metrics;
  }
};

/// Set while a pool worker (or a caller draining chunks) is inside a
/// parallel region; nested ParallelFor calls check it and run inline.
thread_local bool tls_in_parallel_region = false;

size_t ThreadsFromEnv() {
  size_t threads = 0;
  if (const char* env = std::getenv("APOTS_NUM_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      threads = static_cast<size_t>(parsed);
    } else if (*env != '\0') {
      APOTS_LOG(Warning) << "ignoring invalid APOTS_NUM_THREADS=\"" << env
                         << "\"";
    }
  }
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return threads;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (size_t w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(Job* job, size_t worker) {
  const bool was_in_region = tls_in_parallel_region;
  tls_in_parallel_region = true;
  // One span per worker per region: the gaps between workers' spans in
  // the trace view are the utilization picture.
  obs::TraceSpan span("pool.worker");
  size_t completed = 0;
  for (;;) {
    const size_t chunk = job->next_chunk.fetch_add(1);
    if (chunk >= job->num_chunks) break;
    const size_t lo = job->begin + chunk * job->chunk_size;
    const size_t hi = std::min(job->range_end, lo + job->chunk_size);
    try {
      (*job->fn)(lo, hi, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job->error_mu);
      if (!job->error) job->error = std::current_exception();
    }
    ++completed;
  }
  tls_in_parallel_region = was_in_region;
  if (completed > 0 &&
      job->chunks_done.fetch_add(completed) + completed == job->num_chunks) {
    // Last chunk of the region: wake the caller. The lock pairs with the
    // caller's predicate check so the notify can't slip in between.
    std::lock_guard<std::mutex> lock(mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t worker) {
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    RunChunks(job.get(), worker);
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const RangeFn& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  grain = std::max<size_t>(1, grain);
  if (num_threads_ == 1 || n <= grain || tls_in_parallel_region) {
    PoolMetrics::Get().inline_runs.Add();
    fn(begin, end, 0);
    return;
  }
  obs::TraceSpan span("pool.parallel_for");

  // Chunk boundaries depend only on (n, grain) — never on the pool size —
  // so callers that accumulate per chunk stay deterministic across pool
  // sizes. The cap of 32 chunks bounds scheduling overhead while leaving
  // enough slack for dynamic load balancing.
  constexpr size_t kMaxChunks = 32;
  const size_t chunk_size =
      std::max(grain, (n + kMaxChunks - 1) / kMaxChunks);
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->begin = begin;
  job->range_end = end;
  job->chunk_size = chunk_size;
  job->num_chunks = (n + chunk_size - 1) / chunk_size;
  PoolMetrics::Get().regions.Add();
  PoolMetrics::Get().chunks.Add(job->num_chunks);
  // The gauge holds the open region's chunk count and 0 between regions.
  // Only the caller writes it, at open and close, so workers share no
  // cache line through it.
  PoolMetrics::Get().queue_depth.Set(
      static_cast<double>(job->num_chunks));

  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();

  RunChunks(job.get(), /*worker=*/0);

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->chunks_done.load() == job->num_chunks;
    });
    job_ = nullptr;
  }
  PoolMetrics::Get().queue_depth.Set(0.0);
  if (job->error) std::rethrow_exception(job->error);
}

namespace {

ThreadPool** GlobalPoolSlot() {
  static ThreadPool* pool = new ThreadPool(ThreadsFromEnv());
  return &pool;
}

}  // namespace

ThreadPool& GlobalPool() { return **GlobalPoolSlot(); }

void ResetGlobalPool(size_t num_threads) {
  ThreadPool** slot = GlobalPoolSlot();
  delete *slot;
  *slot = new ThreadPool(num_threads);
}

}  // namespace apots

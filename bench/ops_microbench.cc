// Engineering microbenchmarks for the tensor/nn substrate (google-
// benchmark): matmul variants, im2col, and forward/backward of each layer
// family at the quick-profile sizes used by the experiment benches.
//
// `--perf_json[=path]` skips google-benchmark and writes a machine-readable
// Matmul report (default bench_out/perf_ops.json) with one arm per
// (kernel family, thread count): reference (tensor::reference::Matmul, the
// seed's serial loops), fp32_1t/fp32_4t (tensor::Matmul: register tiles
// below 16 rows, packed-panel microkernels with runtime ISA dispatch from
// 16 rows), and int8_1t/int8_4t (quantized weights + VNNI/scalar dot
// products). The report carries the dispatched ISA and derived speedups at
// the 512x512 gate shape; CI gates that fp32 clears 3x over reference (a
// scalar ISA fallback cannot) and that int8 clears 1.5x over fp32_1t when
// the host has VNNI.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/loss.h"
#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using apots::Rng;
using apots::tensor::Tensor;
namespace ops = apots::tensor;

Tensor RandomTensor(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  ops::FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulTransposeA(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatmulTransposeA(a, b));
  }
}
BENCHMARK(BM_MatmulTransposeA)->Arg(64)->Arg(128);

void BM_Im2Col(benchmark::State& state) {
  const Tensor image = RandomTensor({8, 13, 12}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Im2Col(image, 3, 3, 1));
  }
}
BENCHMARK(BM_Im2Col);

void BM_DenseForwardBackward(benchmark::State& state) {
  const size_t batch = 64;
  const size_t in = 156, out = static_cast<size_t>(state.range(0));
  Rng rng(4);
  apots::nn::Dense layer(in, out, &rng);
  const Tensor input = RandomTensor({batch, in}, 5);
  const Tensor grad = RandomTensor({batch, out}, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(input, true));
    benchmark::DoNotOptimize(layer.Backward(grad));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DenseForwardBackward)->Arg(64)->Arg(512);

void BM_Conv2dForwardBackward(benchmark::State& state) {
  const size_t batch = 16;
  const size_t channels = static_cast<size_t>(state.range(0));
  Rng rng(7);
  apots::nn::Conv2d layer(1, channels, 3, 3, 1, &rng);
  const Tensor input = RandomTensor({batch, 1, 13, 12}, 8);
  const Tensor grad = RandomTensor({batch, channels, 13, 12}, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(input, true));
    benchmark::DoNotOptimize(layer.Backward(grad));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Conv2dForwardBackward)->Arg(16)->Arg(64);

void BM_LstmForwardBackward(benchmark::State& state) {
  const size_t batch = 16;
  const size_t hidden = static_cast<size_t>(state.range(0));
  Rng rng(10);
  apots::nn::Lstm layer(13, hidden, /*return_sequences=*/false, &rng);
  const Tensor input = RandomTensor({batch, 12, 13}, 11);
  const Tensor grad = RandomTensor({batch, hidden}, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(input, true));
    benchmark::DoNotOptimize(layer.Backward(grad));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmForwardBackward)->Arg(64)->Arg(128);

void BM_MseLoss(benchmark::State& state) {
  const Tensor pred = RandomTensor({512, 1}, 13);
  const Tensor target = RandomTensor({512, 1}, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(apots::nn::MseLoss(pred, target));
  }
}
BENCHMARK(BM_MseLoss);

void BM_BceLoss(benchmark::State& state) {
  const Tensor logits = RandomTensor({512, 1}, 15);
  Tensor target({512, 1});
  for (size_t i = 0; i < 512; ++i) target[i] = (i % 2) ? 1.0f : 0.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(apots::nn::BceWithLogitsLoss(logits, target));
  }
}
BENCHMARK(BM_BceLoss);

// ---------------------------------------------------------------------------
// --perf_json harness
// ---------------------------------------------------------------------------

namespace perf {

enum class Kernel { kReference, kFp32, kInt8 };

struct MatmulArm {
  const char* name;
  /// kInt8 packs the weights to int8 panels ahead of time (as the
  /// inference runtime does) and quantizes activations per call.
  Kernel kernel;
  size_t threads;
};

// Times n x n Matmul for the given arm: repeats until ~80ms of work has
// accumulated (min 5 iterations), reporting seconds per call.
double TimeMatmul(const MatmulArm& arm, size_t n) {
  apots::ResetGlobalPool(arm.threads);
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  const ops::Int8Matrix packed =
      arm.kernel == Kernel::kInt8 ? ops::PackInt8Weights(b) : ops::Int8Matrix{};
  Tensor out({n, n});
  const auto call = [&] {
    switch (arm.kernel) {
      case Kernel::kReference:
        benchmark::DoNotOptimize(ops::reference::Matmul(a, b));
        break;
      case Kernel::kFp32:
        benchmark::DoNotOptimize(ops::Matmul(a, b));
        break;
      case Kernel::kInt8:
        ops::Int8MatmulInto(a, packed, &out, nullptr);
        benchmark::DoNotOptimize(out.data());
        break;
    }
  };
  call();  // warm-up
  size_t iters = 0;
  apots::Stopwatch watch;
  double elapsed = 0.0;
  while (iters < 5 || elapsed < 0.08) {
    call();
    ++iters;
    elapsed = watch.ElapsedSeconds();
  }
  return elapsed / static_cast<double>(iters);
}

size_t ParallelThreads() {
  if (const char* env = std::getenv("APOTS_NUM_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 1) return static_cast<size_t>(parsed);
  }
  return 4;
}

int RunPerfJson(const std::string& path) {
  const size_t threads = ParallelThreads();
  const MatmulArm arms[] = {
      {"reference", Kernel::kReference, 1},
      {"fp32_1t", Kernel::kFp32, 1},
      {"fp32_4t", Kernel::kFp32, threads},
      {"int8_1t", Kernel::kInt8, 1},
      {"int8_4t", Kernel::kInt8, threads},
  };
  const size_t sizes[] = {32, 64, 128, 256, 512};

  struct Row {
    const char* arm;
    size_t threads;
    size_t n;
    double seconds_per_call;
    double gflops;
  };
  std::vector<Row> rows;
  for (const MatmulArm& arm : arms) {
    for (size_t n : sizes) {
      const double sec = TimeMatmul(arm, n);
      const double gflops =
          2.0 * static_cast<double>(n) * n * n / sec / 1e9;
      rows.push_back({arm.name, arm.threads, n, sec, gflops});
      std::fprintf(stderr, "matmul %-10s n=%-4zu %10.1f us  %6.2f GFLOP/s\n",
                   arm.name, n, sec * 1e6, gflops);
    }
  }
  apots::ResetGlobalPool(1);

  // Derived speedups at the gate shape (the largest size, where the
  // packed-panel and quantized kernels amortize their setup). Name-based
  // lookup, never positional.
  const auto seconds_of = [&rows](const char* arm, size_t n) {
    for (const Row& r : rows) {
      if (std::strcmp(r.arm, arm) == 0 && r.n == n) return r.seconds_per_call;
    }
    std::fprintf(stderr, "missing row %s n=%zu\n", arm, n);
    std::exit(1);
  };
  const size_t gate_n = 512;
  const double fp32_1t = seconds_of("fp32_1t", gate_n);

  std::ofstream out;
  if (!apots::bench::OpenReport(path, &out)) return 1;
  out << "{\n"
      << "  \"bench\": \"ops_microbench\",\n"
      << "  \"op\": \"matmul\",\n"
      << "  \"parallel_threads\": " << threads << ",\n"
      << "  \"isa\": \"" << apots::tensor::ActiveIsaLabel() << "\",\n"
      << "  \"vnni\": " << (apots::tensor::HasVnni() ? "true" : "false")
      << ",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"arm\": \"" << r.arm << "\", \"threads\": " << r.threads
        << ", \"n\": " << r.n << ", \"seconds_per_call\": "
        << r.seconds_per_call << ", \"gflops\": " << r.gflops << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"speedup_fp32_1t_vs_reference_n512\": "
      << seconds_of("reference", gate_n) / fp32_1t << ",\n"
      << "  \"speedup_int8_1t_vs_fp32_1t_n512\": "
      << fp32_1t / seconds_of("int8_1t", gate_n) << ",\n"
      << "  \"speedup_fp32_4t_vs_fp32_1t_n512\": "
      << fp32_1t / seconds_of("fp32_4t", gate_n) << "\n}\n";
  return 0;
}

}  // namespace perf

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perf_json", 11) == 0) {
      std::string path = "bench_out/perf_ops.json";
      if (argv[i][11] == '=') path = argv[i] + 12;
      return perf::RunPerfJson(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

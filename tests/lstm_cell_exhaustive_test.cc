// Exhaustive check of the LSTM cell kernel (tensor::LstmCell): every
// vector kernel the dispatch ladder picks against the one-lane form on all
// 2^32 float bit patterns, bitwise (NaN payloads and signed zeros count),
// and the one-lane sigmoid and tanh against the libm forms within the
// bound of lstm_cell_reference.h. Each pattern feeds all four gates and
// c_prev of one unit. The run takes minutes, mostly in the one-lane form
// and subnormal arithmetic, so the binary carries the `soak` label;
// kernel_equivalence_test runs the same checks on a stride of patterns.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lstm_cell_reference.h"
#include "tensor/cpu_features.h"
#include "tensor/simd_kernels.h"

namespace apots::tensor {
namespace {

/// Patterns per cell call; 2^32 is a multiple of it.
constexpr size_t kBlock = 4096;
constexpr uint64_t kNumBlocks = (uint64_t{1} << 32) / kBlock;

struct Tally {
  uint64_t mismatches = 0;
  uint32_t first_mismatch = 0;
  testing::ActivationError sigmoid, tanh;
};

/// Output buffers of one cell call over kBlock units.
struct Outputs {
  std::vector<float> act = std::vector<float>(4 * kBlock);
  std::vector<float> c = std::vector<float>(kBlock);
  std::vector<float> tanh_c = std::vector<float>(kBlock);
  std::vector<float> h = std::vector<float>(kBlock);

  simd::LstmCellArgs Args(const float* gx, const float* zeros,
                          const float* c_prev) {
    return {gx, zeros, zeros, c_prev, 1, kBlock,
            act.data(), c.data(), tanh_c.data(), h.data()};
  }
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b,
              size_t unit, size_t stride) {
  for (size_t i = unit; i < a.size(); i += stride) {
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Blocks first, first + step, ... through the one-lane form and each of
/// `kernels`.
Tally Sweep(const std::vector<simd::LstmCellFn>& kernels, uint64_t first,
            uint64_t step) {
  std::vector<float> gx(4 * kBlock), c_prev(kBlock);
  const std::vector<float> zeros(4 * kBlock, -0.0f);  // (x + -0) + -0 == x
  Outputs want, got;
  Tally tally;
  for (uint64_t block = first; block < kNumBlocks; block += step) {
    for (size_t j = 0; j < kBlock; ++j) {
      const float x =
          std::bit_cast<float>(static_cast<uint32_t>(block * kBlock + j));
      for (size_t gate = 0; gate < 4; ++gate) gx[gate * kBlock + j] = x;
      c_prev[j] = x;
    }
    simd::LstmCellScalar(want.Args(gx.data(), zeros.data(), c_prev.data()));
    for (size_t j = 0; j < kBlock; ++j) {
      if (std::isnan(c_prev[j])) continue;
      tally.sigmoid.Add(want.act[j], testing::LibmSigmoid(c_prev[j]));
      tally.tanh.Add(want.act[2 * kBlock + j], testing::LibmTanh(c_prev[j]));
    }
    for (simd::LstmCellFn kernel : kernels) {
      kernel(got.Args(gx.data(), zeros.data(), c_prev.data()));
      if (SameBits(got.act, want.act, 0, 1) && SameBits(got.c, want.c, 0, 1) &&
          SameBits(got.tanh_c, want.tanh_c, 0, 1) &&
          SameBits(got.h, want.h, 0, 1)) {
        continue;
      }
      for (size_t j = 0; j < kBlock; ++j) {
        if (SameBits(got.act, want.act, j, kBlock) &&
            SameBits(got.c, want.c, j, kBlock) &&
            SameBits(got.tanh_c, want.tanh_c, j, kBlock) &&
            SameBits(got.h, want.h, j, kBlock)) {
          continue;
        }
        if (tally.mismatches++ == 0) {
          tally.first_mismatch = static_cast<uint32_t>(block * kBlock + j);
        }
      }
    }
  }
  return tally;
}

TEST(LstmCellExhaustiveTest, EveryRungMatchesOneLaneAndLibmBound) {
  // The distinct vector kernels behind the rungs this host runs.
  std::vector<simd::LstmCellFn> kernels;
  for (SimdIsa rung : {SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    internal::OverrideIsaForTesting(rung);
    const simd::LstmCellFn kernel = simd::PickLstmCellKernel();
    if (kernel != simd::LstmCellScalar &&
        std::find(kernels.begin(), kernels.end(), kernel) == kernels.end()) {
      kernels.push_back(kernel);
    }
  }
  internal::ClearIsaOverrideForTesting();

  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<Tally> tallies(threads);
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  // Interleaved blocks spread the slow subnormal blocks over the threads.
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&, t] { tallies[t] = Sweep(kernels, t, threads); });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  Tally total;
  for (const Tally& tally : tallies) {
    if (total.mismatches == 0 && tally.mismatches > 0) {
      total.first_mismatch = tally.first_mismatch;
    }
    total.mismatches += tally.mismatches;
    total.sigmoid.Merge(tally.sigmoid);
    total.tanh.Merge(tally.tanh);
  }
  std::printf(
      "%zu vector kernel(s), %zu threads, %.1f s: %llu mismatching patterns; "
      "vs libm: sigmoid abs %.3g rel %.3g, tanh abs %.3g rel %.3g\n",
      kernels.size(), threads, seconds,
      static_cast<unsigned long long>(total.mismatches), total.sigmoid.abs,
      total.sigmoid.rel, total.tanh.abs, total.tanh.rel);
  EXPECT_EQ(total.mismatches, 0u)
      << "first at bits 0x" << std::hex << total.first_mismatch;
  EXPECT_LE(total.sigmoid.abs, testing::kAbsBound);
  EXPECT_LE(total.sigmoid.rel, testing::kRelBound);
  EXPECT_LE(total.tanh.abs, testing::kAbsBound);
  EXPECT_LE(total.tanh.rel, testing::kRelBound);
}

}  // namespace
}  // namespace apots::tensor

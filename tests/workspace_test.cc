// Tests for the tensor::Workspace bump arena (S3): slot reuse across
// Reset, alignment of borrowed storage, grow-only buffers, non-aliasing of
// tensors borrowed within one generation, and the inference forward on a
// workspace being bitwise identical to the recorded (training) forward.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace apots::tensor {
namespace {

TEST(WorkspaceTest, AcquireShapesAndSlotAccounting) {
  Workspace ws;
  EXPECT_EQ(ws.slots_in_use(), 0u);
  EXPECT_EQ(ws.capacity_slots(), 0u);

  Tensor* a = ws.Acquire({2, 3});
  Tensor* b = ws.Acquire({4});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->shape(), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(b->shape(), (std::vector<size_t>{4}));
  EXPECT_EQ(ws.slots_in_use(), 2u);
  EXPECT_EQ(ws.capacity_slots(), 2u);
  EXPECT_EQ(ws.capacity_floats(), 10u);
}

TEST(WorkspaceTest, ResetReusesSlotsWithoutGrowth) {
  Workspace ws;
  Tensor* first = ws.Acquire({8, 8});
  const float* first_data = first->data();
  ws.Reset();
  EXPECT_EQ(ws.slots_in_use(), 0u);

  // Steady state: the same slot (and its buffer) comes back.
  Tensor* again = ws.Acquire({8, 8});
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->data(), first_data);
  EXPECT_EQ(ws.capacity_slots(), 1u);
  EXPECT_EQ(ws.generation(), 1u);
}

TEST(WorkspaceTest, BorrowedStorageIs64ByteAligned) {
  Workspace ws;
  for (size_t n : {1u, 3u, 17u, 64u, 1000u}) {
    Tensor* t = ws.Acquire({n});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t->data()) % 64, 0u)
        << "slot of " << n << " floats";
  }
}

TEST(WorkspaceTest, BuffersGrowButNeverReallocOnShrink) {
  Workspace ws;
  Tensor* slot = ws.Acquire({16, 16});
  const float* big_data = slot->data();
  EXPECT_EQ(ws.high_water_floats(), 256u);

  // A smaller request in the same slot reuses the existing buffer — the
  // pointer is stable, so steady-state forwards never touch the heap.
  ws.Reset();
  Tensor* small = ws.Acquire({4, 4});
  EXPECT_EQ(small, slot);
  EXPECT_EQ(small->data(), big_data);
  EXPECT_EQ(small->size(), 16u);
  // The high-water mark remembers the largest generation.
  EXPECT_EQ(ws.high_water_floats(), 256u);
}

TEST(WorkspaceTest, RewindHandsTheSameSlotsOutAgain) {
  Workspace ws;
  Tensor* kept = ws.Acquire({8});
  const size_t mark = ws.slots_in_use();
  std::vector<Tensor*> first;
  for (int pass = 0; pass < 3; ++pass) {
    ws.Rewind(mark);
    Tensor* a = ws.Acquire({4, 4});
    Tensor* b = ws.Acquire({2});
    if (pass == 0) first = {a, b};
    EXPECT_EQ(a, first[0]);
    EXPECT_EQ(b, first[1]);
    EXPECT_NE(a, kept);
  }
  // A loop's scratch costs one iteration's slots, not one per iteration.
  EXPECT_EQ(ws.capacity_slots(), 3u);
  EXPECT_EQ(ws.high_water_floats(), 8u + 16u + 2u);
}

TEST(WorkspaceTest, TensorsWithinOneGenerationNeverAlias) {
  Workspace ws;
  // Two warm-up generations so all buffers exist and get recycled.
  for (int gen = 0; gen < 3; ++gen) {
    ws.Reset();
    std::vector<Tensor*> borrowed;
    for (size_t n : {32u, 7u, 128u, 1u}) borrowed.push_back(ws.Acquire({n}));
    for (size_t i = 0; i < borrowed.size(); ++i) {
      const float* lo_i = borrowed[i]->data();
      const float* hi_i = lo_i + borrowed[i]->size();
      for (size_t j = i + 1; j < borrowed.size(); ++j) {
        const float* lo_j = borrowed[j]->data();
        const float* hi_j = lo_j + borrowed[j]->size();
        EXPECT_TRUE(hi_i <= lo_j || hi_j <= lo_i)
            << "slots " << i << " and " << j << " overlap in generation "
            << gen;
      }
    }
  }
}

TEST(WorkspaceTest, WorkspaceForwardMatchesRecordedForwardBitwise) {
  // A small Dense stack, random weights, random input: the inference
  // Forward on a workspace must reproduce the recorded training forward
  // bit for bit — and stay bitwise stable when the arena slots are dirty
  // from a previous generation. The row counts put the products on both
  // sides of the 16-row panel threshold.
  Rng rng(7);
  apots::nn::Sequential net;
  net.Add(std::make_unique<apots::nn::Dense>(10, 7, &rng));
  net.Add(std::make_unique<apots::nn::Relu>());
  net.Add(std::make_unique<apots::nn::Dense>(7, 4, &rng));
  for (size_t rows : {5u, 15u, 16u, 17u, 192u}) {
    Tensor input({rows, 10});
    for (size_t i = 0; i < input.size(); ++i) {
      input[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    Workspace record_ws;
    const Tensor expected = *net.RecordForward(input, &record_ws);

    Workspace ws;
    for (int gen = 0; gen < 3; ++gen) {
      ws.Reset();
      const Tensor* got = net.Forward(input, &ws);
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(got->shape(), expected.shape());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ((*got)[i], expected[i])
            << "rows " << rows << " element " << i << " generation " << gen;
      }
    }
  }
}

}  // namespace
}  // namespace apots::tensor

#ifndef APOTS_TENSOR_WORKSPACE_H_
#define APOTS_TENSOR_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace apots::tensor {

/// Bump arena of reusable tensor buffers for allocation-free inference.
///
/// Layers borrow activation/scratch tensors with Acquire instead of
/// constructing fresh ones; Reset returns the cursor to the start without
/// releasing storage, so a steady-state forward pass (same shapes every
/// call) touches the heap zero times after its first warm-up iteration.
///
/// Contract:
///  - Acquire hands out slots in a fixed bump order; two tensors borrowed
///    between the same pair of Resets never alias (each slot owns distinct
///    storage, and slot k is handed out at most once per generation).
///  - Borrowed pointers are invalidated by Reset and by the Workspace's
///    destruction — callers must copy any result that outlives the arena.
///  - Contents of an acquired tensor are unspecified (dirty from the
///    previous generation); writers must fully overwrite their output.
///  - Growth policy: a slot's buffer only grows (never shrinks), and new
///    slots are appended on first use, so capacity converges to the
///    high-water mark of the shapes actually requested.
///  - Not thread-safe; use one Workspace per worker thread.
class Workspace {
 public:
  Workspace() = default;

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Borrows an uninitialized tensor of `shape` from the arena. The pointer
  /// stays valid until the next Reset.
  Tensor* Acquire(std::vector<size_t> shape);

  /// Borrows a raw 64-byte-aligned scratch buffer of at least `bytes`
  /// (quantized-inference activation codes and similar non-float
  /// scratch). Same contract as Acquire: bump order, grow-only slots,
  /// contents dirty, invalidated by Reset.
  void* AcquireBytes(size_t bytes);

  /// Starts a new generation: previously borrowed tensors become invalid,
  /// storage is retained for reuse.
  void Reset();

  /// Hands the slots borrowed since `mark` (an earlier slots_in_use()) out
  /// again to the next Acquires: scratch that every iteration of a loop
  /// reuses. Tensors borrowed after the mark become invalid.
  void Rewind(size_t mark);

  /// Slots handed out since the last Reset.
  size_t slots_in_use() const { return cursor_; }
  /// Total slots ever created.
  size_t capacity_slots() const { return slots_.size(); }
  /// Total floats currently resident across all slot buffers: their
  /// capacity, which a slot keeps when a later Acquire or Rewind hands it
  /// out at a smaller shape.
  size_t capacity_floats() const;
  /// Largest capacity_floats observed over the arena's lifetime.
  size_t high_water_floats() const { return high_water_floats_; }
  /// Reset count (diagnostics; one generation ≈ one forward pass).
  size_t generation() const { return generation_; }

  /// Byte slots handed out since the last Reset.
  size_t byte_slots_in_use() const { return byte_cursor_; }
  /// Total bytes currently resident across all byte-slot buffers.
  size_t capacity_bytes() const;

 private:
  using ByteBuffer = std::vector<uint8_t, AlignedAllocator<uint8_t>>;

  std::vector<std::unique_ptr<Tensor>> slots_;
  std::vector<std::unique_ptr<ByteBuffer>> byte_slots_;
  size_t cursor_ = 0;
  size_t byte_cursor_ = 0;
  size_t generation_ = 0;
  size_t high_water_floats_ = 0;
};

}  // namespace apots::tensor

#endif  // APOTS_TENSOR_WORKSPACE_H_

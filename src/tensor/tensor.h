#ifndef APOTS_TENSOR_TENSOR_H_
#define APOTS_TENSOR_TENSOR_H_

#include <cstddef>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "util/logging.h"

namespace apots::tensor {

/// Allocator that over-aligns tensor storage to `Alignment` bytes so every
/// tensor's data() starts on a cache-line boundary — the blocked kernels can
/// then use aligned vector loads, and arena-borrowed buffers never straddle
/// a line shared with a neighbouring allocation.
template <typename T, size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

/// Tensor backing storage: 64-byte-aligned floats.
using AlignedFloatVector = std::vector<float, AlignedAllocator<float>>;

/// Dense row-major float32 n-dimensional array. This is the numeric
/// substrate of the neural-network stack: contiguous storage, explicit
/// shape, no implicit broadcasting (ops that broadcast say so in their
/// names). Copyable and movable; copies are deep.
class Tensor {
 public:
  /// An empty (rank-0, zero-element) tensor.
  Tensor() = default;

  /// Uninitialized-by-zero tensor of the given shape.
  explicit Tensor(std::vector<size_t> shape);

  /// 1-D tensor from values.
  static Tensor FromVector(const std::vector<float>& values);

  /// 2-D tensor from row-major values; values.size() must equal rows*cols.
  static Tensor FromMatrix(size_t rows, size_t cols,
                           const std::vector<float>& values);

  /// All-zeros / all-`value` tensors.
  static Tensor Zeros(std::vector<size_t> shape);
  static Tensor Full(std::vector<size_t> shape, float value);

  const std::vector<size_t>& shape() const { return shape_; }
  size_t rank() const { return shape_.size(); }
  size_t size() const { return data_.size(); }
  /// Floats the buffer holds, which ResetShape never shrinks.
  size_t capacity() const { return data_.capacity(); }

  /// Dimension `axis`; checked.
  size_t dim(size_t axis) const {
    APOTS_DCHECK(axis < shape_.size());
    return shape_[axis];
  }

  /// Rows/cols of a rank-2 tensor; checked.
  size_t rows() const {
    APOTS_DCHECK(rank() == 2);
    return shape_[0];
  }
  size_t cols() const {
    APOTS_DCHECK(rank() == 2);
    return shape_[1];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat element access; checked in debug builds.
  float& operator[](size_t i) {
    APOTS_DCHECK(i < data_.size());
    return data_[i];
  }
  float operator[](size_t i) const {
    APOTS_DCHECK(i < data_.size());
    return data_[i];
  }

  /// 2-D element access; checked in debug builds.
  float& At(size_t row, size_t col) {
    APOTS_DCHECK(rank() == 2);
    APOTS_DCHECK(row < shape_[0] && col < shape_[1]);
    return data_[row * shape_[1] + col];
  }
  float At(size_t row, size_t col) const {
    APOTS_DCHECK(rank() == 2);
    APOTS_DCHECK(row < shape_[0] && col < shape_[1]);
    return data_[row * shape_[1] + col];
  }

  /// 3-D element access (d0, d1, d2); checked in debug builds.
  float& At3(size_t i, size_t j, size_t k) {
    APOTS_DCHECK(rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float At3(size_t i, size_t j, size_t k) const {
    APOTS_DCHECK(rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Returns a tensor with the same data and a new shape of equal size.
  Tensor Reshape(std::vector<size_t> new_shape) const;

  /// In-place re-dimension to `new_shape`, reusing the existing buffer
  /// when its capacity suffices (contents become unspecified). This is the
  /// Workspace slot-recycling hook; ordinary code should construct a new
  /// Tensor instead.
  void ResetShape(std::vector<size_t> new_shape);

  /// True when shapes are identical.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Human-readable "[2, 3]" shape string.
  std::string ShapeString() const;

  /// Pretty-prints small tensors (debugging aid).
  std::string ToString(size_t max_elements = 64) const;

 private:
  std::vector<size_t> shape_;
  AlignedFloatVector data_;
};

/// Number of elements implied by `shape`.
size_t NumElements(const std::vector<size_t>& shape);

}  // namespace apots::tensor

#endif  // APOTS_TENSOR_TENSOR_H_

#include "tensor/workspace.h"

#include <algorithm>
#include <utility>

namespace apots::tensor {

Tensor* Workspace::Acquire(std::vector<size_t> shape) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Tensor>());
  }
  Tensor* slot = slots_[cursor_++].get();
  slot->ResetShape(std::move(shape));
  high_water_floats_ = std::max(high_water_floats_, capacity_floats());
  return slot;
}

void* Workspace::AcquireBytes(size_t bytes) {
  if (byte_cursor_ == byte_slots_.size()) {
    byte_slots_.push_back(std::make_unique<ByteBuffer>());
  }
  ByteBuffer* slot = byte_slots_[byte_cursor_++].get();
  if (slot->size() < bytes) slot->resize(std::max<size_t>(bytes, 64));
  return slot->data();
}

void Workspace::Reset() {
  cursor_ = 0;
  byte_cursor_ = 0;
  ++generation_;
}

void Workspace::Rewind(size_t mark) {
  APOTS_CHECK_LE(mark, cursor_);
  cursor_ = mark;
}

size_t Workspace::capacity_floats() const {
  size_t total = 0;
  for (const auto& slot : slots_) total += slot->capacity();
  return total;
}

size_t Workspace::capacity_bytes() const {
  size_t total = 0;
  for (const auto& slot : byte_slots_) total += slot->size();
  return total;
}

}  // namespace apots::tensor

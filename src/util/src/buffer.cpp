#include "mel/util/buffer.hpp"

#include <cstring>
#include <new>
#include <stdexcept>

namespace mel::util {

Buffer Buffer::alloc(std::size_t n) {
  if (n == 0) return Buffer{};
  auto* b = static_cast<Block*>(::operator new(kHeaderBytes + n));
  b->refs.store(1, std::memory_order_relaxed);
  b->size = n;
  return Buffer{b};
}

Buffer Buffer::copy_of(std::span<const std::byte> bytes) {
  Buffer b = alloc(bytes.size());
  if (!bytes.empty()) std::memcpy(payload(b.block_), bytes.data(), bytes.size());
  return b;
}

void Buffer::release() noexcept {
  if (block_ == nullptr) return;
  // acq_rel on the final drop: the freeing thread must observe every
  // write made by threads that held (and released) earlier references.
  if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ::operator delete(block_);
  }
  block_ = nullptr;
}

std::byte* Buffer::mutable_data() {
  if (block_ == nullptr) return nullptr;
  if (block_->refs.load(std::memory_order_acquire) != 1) {
    throw std::logic_error(
        "Buffer::mutable_data on a shared block — clone() first");
  }
  return payload(block_);
}

Buffer Buffer::clone() const { return copy_of(span()); }

}  // namespace mel::util

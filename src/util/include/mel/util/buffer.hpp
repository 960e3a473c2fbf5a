// Ref-counted byte buffer for the simulated-MPI hot path.
//
// A Buffer is a single-pointer handle to a reference-counted block: one
// operator new of a small header plus the payload, freed by its last
// reference. Copying a Buffer bumps a refcount — the same payload block can
// sit in a sender's retransmit queue, an in-flight delivery closure, and a
// receiver mailbox simultaneously without being duplicated, which is what
// makes "one copy end-to-end" possible for isend / put / neighborhood
// slices. Writers that need to mutate a shared payload (the fault
// injector's byte flip) clone first: copy-on-write, never in-place.
//
// The refcount is the only shared state, and it is atomic because the
// sharded simulator releases a payload on another worker thread than the
// one that allocated it. A Buffer is safe from any thread at any time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace mel::util {

class Buffer {
 public:
  /// Empty buffer: no block, size 0, data() == nullptr.
  constexpr Buffer() noexcept = default;

  /// A fresh uniquely-owned block with `n` uninitialized payload bytes.
  static Buffer alloc(std::size_t n);

  /// A fresh block holding a copy of `bytes` — the single payload copy a
  /// message pays end-to-end.
  static Buffer copy_of(std::span<const std::byte> bytes);

  Buffer(const Buffer& o) noexcept : block_(o.block_) { retain(); }
  Buffer(Buffer&& o) noexcept : block_(o.block_) { o.block_ = nullptr; }
  Buffer& operator=(const Buffer& o) noexcept {
    if (block_ != o.block_) {
      release();
      block_ = o.block_;
      retain();
    }
    return *this;
  }
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      release();
      block_ = o.block_;
      o.block_ = nullptr;
    }
    return *this;
  }
  ~Buffer() { release(); }

  std::size_t size() const noexcept { return block_ ? block_->size : 0; }
  bool empty() const noexcept { return size() == 0; }
  const std::byte* data() const noexcept {
    return block_ ? payload(block_) : nullptr;
  }

  std::span<const std::byte> span() const noexcept { return {data(), size()}; }
  operator std::span<const std::byte>() const noexcept { return span(); }

  /// True when this handle is the only reference to the block (or empty).
  bool unique() const noexcept {
    return block_ == nullptr ||
           block_->refs.load(std::memory_order_acquire) == 1;
  }

  /// Writable payload. Only legal on a uniquely-owned buffer — mutating a
  /// shared block would corrupt every other holder (e.g. a retransmit
  /// queue still relying on the original bytes). Throws std::logic_error
  /// on a shared block.
  std::byte* mutable_data();

  /// Deep copy into a fresh uniquely-owned block (copy-on-write helper).
  Buffer clone() const;

  friend bool operator==(const Buffer& a, const Buffer& b) noexcept {
    if (a.size() != b.size()) return false;
    if (a.block_ == b.block_ || a.size() == 0) return true;
    return __builtin_memcmp(a.data(), b.data(), a.size()) == 0;
  }

  /// Does nothing: blocks go back to the allocator when their last
  /// reference drops. Kept only because bench/e2e calls it between runs.
  static void trim_pool() noexcept {}

 private:
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::size_t size;  // payload bytes
  };

  static std::byte* payload(Block* b) noexcept {
    return reinterpret_cast<std::byte*>(b) + kHeaderBytes;
  }
  // Payload starts one max-aligned unit past the header.
  static constexpr std::size_t kHeaderBytes =
      (sizeof(Block) + alignof(std::max_align_t) - 1) /
      alignof(std::max_align_t) * alignof(std::max_align_t);

  void retain() noexcept {
    // Relaxed: bumping a count the caller already holds a reference on
    // needs no ordering; the release side pairs acq_rel on the final drop.
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void release() noexcept;

  explicit Buffer(Block* b) noexcept : block_(b) {}

  Block* block_ = nullptr;
};

}  // namespace mel::util

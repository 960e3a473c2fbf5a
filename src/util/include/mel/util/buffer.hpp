// Ref-counted pooled byte buffer for the simulated-MPI hot path.
//
// A Buffer is a single-pointer handle to a reference-counted block drawn
// from per-size-class free lists, so the substrate's steady state recycles
// payload memory instead of hitting the global allocator once per message
// (the old std::vector<std::byte> payloads were the dominant allocation
// source). Copying a Buffer bumps a refcount — the same payload block can
// sit in a sender's retransmit queue, an in-flight delivery closure, and a
// receiver mailbox simultaneously without being duplicated, which is what
// makes "one copy end-to-end" possible for isend / put / neighborhood
// slices. Writers that need to mutate a shared payload (the fault
// injector's byte flip) clone first: copy-on-write, never in-place.
//
// Free blocks live in a cache per thread, backed by one shared pool. alloc
// pops from the calling thread's cache and the final release pushes onto
// it, with no lock and no shared atomic: the block's refcount is the only
// atomic, because the sharded simulator releases a payload on another
// worker thread than the one that allocated it. Caches trade whole batches
// with the shared pool under its mutex: an empty cache takes one batch
// before it calls operator new, and a cache holding two batches of a size
// class hands the older one back. A batch is at most 64 blocks and 64 KiB,
// and at least one block, so one thread parks little memory, and blocks
// that one thread frees and another allocates travel back through the
// shared pool. A thread's cache is flushed to the shared pool when the
// thread exits, and a release after that goes to the shared pool directly.
// The shared pool is never destroyed, so it outlives every Buffer. There
// is no gate: the pool is safe from any thread at any time.
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

  /// A fresh uniquely-owned block with `n` uninitialized payload bytes
  /// (from the pool's free list when one of the right class is available).
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

  // -- Pool introspection -----------------------------------------------------
  /// Counters of the calling thread, plus the free blocks parked in its
  /// cache and in the shared pool.
  struct PoolStats {
    std::uint64_t allocs = 0;       // blocks handed out
    std::uint64_t pool_hits = 0;    // ... of which came from a free list
    std::uint64_t oversized = 0;    // > max size class, malloc'd directly
    std::uint64_t free_blocks = 0;  // parked in this cache + the shared pool
  };
  static PoolStats pool_stats();

  /// Return every block parked in the calling thread's cache and in the
  /// shared pool to the allocator. Live blocks and other threads' caches
  /// are unaffected.
  static void trim_pool();

 private:
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint8_t size_class;  // index into the free lists; kOversized = raw
    std::size_t size;         // payload bytes in use
  };
  static constexpr std::uint8_t kOversized = 0xff;

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

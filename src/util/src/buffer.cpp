#include "mel/util/buffer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>
#include <stdexcept>
#include <utility>

namespace mel::util {

namespace {

// Pow2 size classes 64 B .. 64 KiB; anything larger bypasses the pool. A
// larger class would cost more than it saves: a neighborhood call packs a
// rank's round into one block, and as rounds shrink, parked blocks of
// classes that large stay idle, with up to half of each block slack, while
// the next round draws new ones (NCL on a 512-rank RGG peaked 15% higher
// with classes up to 1 MiB).
constexpr std::size_t kMinClassBytes = 64;
constexpr std::size_t kNumClasses = 11;  // 64 << 10 == 64 KiB

// A batch, the unit caches trade with the shared pool, holds at most this
// many blocks and bytes (header included), and at least one block.
constexpr std::size_t kMaxBatchBlocks = 64;
constexpr std::size_t kMaxBatchBytes = 64 << 10;

constexpr std::size_t class_bytes(std::size_t cls) {
  return kMinClassBytes << cls;
}

std::size_t class_for(std::size_t n) {
  if (n <= kMinClassBytes) return 0;
  return static_cast<std::size_t>(
      std::bit_width(n - 1) - std::bit_width(kMinClassBytes - 1));
}

/// Blocks per batch of every size class, for blocks with a
/// `header_bytes` header in front of the payload.
constexpr std::array<std::uint32_t, kNumClasses> batch_sizes(
    std::size_t header_bytes) {
  std::array<std::uint32_t, kNumClasses> out{};
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    out[cls] = static_cast<std::uint32_t>(std::clamp<std::size_t>(
        kMaxBatchBytes / (header_bytes + class_bytes(cls)), 1,
        kMaxBatchBlocks));
  }
  return out;
}

/// The first bytes of a parked block, reused as free-list links.
struct FreeBlock {
  FreeBlock* next;        // the next block of the same batch
  FreeBlock* next_batch;  // shared pool: the batch after the one this heads
  std::uint32_t count;    // shared pool: blocks in the batch this heads
};

/// An intrusive LIFO list of free blocks of one size class.
struct Stack {
  FreeBlock* head = nullptr;
  std::uint32_t count = 0;

  void push(void* p) noexcept {
    head = ::new (p) FreeBlock{head, nullptr, 0};
    ++count;
  }
  void* pop() noexcept {
    FreeBlock* b = head;
    head = b->next;
    --count;
    return b;
  }
  void free_all() noexcept {
    while (head != nullptr) ::operator delete(pop());
  }
};

/// The pool behind every thread's cache. It holds whole batches, so one
/// trade costs one lock and O(1) work whatever the batch size.
class SharedPool {
 public:
  /// One batch of class `cls`, or an empty stack.
  Stack take(std::size_t cls) {
    const std::lock_guard lk(mu_);
    FreeBlock* b = batches_[cls];
    if (b == nullptr) return {};
    batches_[cls] = b->next_batch;
    blocks_ -= b->count;
    return Stack{b, b->count};
  }

  /// Park a non-empty stack as one batch.
  void give(std::size_t cls, Stack s) {
    s.head->count = s.count;
    const std::lock_guard lk(mu_);
    s.head->next_batch = batches_[cls];
    batches_[cls] = s.head;
    blocks_ += s.count;
  }

  std::uint64_t blocks() {
    const std::lock_guard lk(mu_);
    return blocks_;
  }

  void trim() {
    const std::lock_guard lk(mu_);
    for (FreeBlock*& head : batches_) {
      while (head != nullptr) {
        Stack batch{head, head->count};
        head = head->next_batch;
        batch.free_all();
      }
    }
    blocks_ = 0;
  }

 private:
  std::mutex mu_;
  FreeBlock* batches_[kNumClasses] = {};
  std::uint64_t blocks_ = 0;
};

SharedPool& shared_pool() {
  // Never destroyed: a Buffer released during static destruction, after
  // its thread's cache was flushed, still has somewhere to go.
  static SharedPool* const p = new SharedPool;
  return *p;
}

/// One thread's free blocks. Per size class, alloc pops `loaded` and the
/// final release pushes onto it; `spare` is empty or holds one full batch,
/// the older of the two a full cache holds.
struct Cache {
  enum class State : std::uint8_t { kUnused, kLive, kFlushed };
  Stack loaded[kNumClasses];
  Stack spare[kNumClasses];
  Buffer::PoolStats stats;
  State state = State::kUnused;

  std::uint64_t blocks() const {
    std::uint64_t n = 0;
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      n += loaded[cls].count + spare[cls].count;
    }
    return n;
  }

  /// Hand every parked block to the shared pool.
  void flush() {
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      for (Stack* s : {&loaded[cls], &spare[cls]}) {
        if (s->count != 0) shared_pool().give(cls, std::exchange(*s, {}));
      }
    }
  }
};

// mellint: allow(global-cache) — the per-thread free lists are the point:
// they keep alloc and release off the shared pool's mutex. Only the owning
// thread touches its cache; blocks cross threads through SharedPool, under
// its mutex. Buffer memory never feeds virtual time.
constinit thread_local Cache tls_cache;

/// Flushes the calling thread's cache when the thread exits.
struct CacheFlusher {
  CacheFlusher() = default;
  CacheFlusher(const CacheFlusher&) = delete;
  CacheFlusher& operator=(const CacheFlusher&) = delete;
  ~CacheFlusher() {
    tls_cache.flush();
    tls_cache.state = Cache::State::kFlushed;
  }
};

/// The calling thread's cache, or nullptr once thread exit has flushed it.
Cache* thread_cache() {
  Cache& c = tls_cache;
  if (c.state == Cache::State::kLive) [[likely]] return &c;
  if (c.state == Cache::State::kFlushed) return nullptr;
  // First use on this thread: register the flush at thread exit.
  // mellint: allow(global-cache) — exit hook of tls_cache; stateless.
  thread_local CacheFlusher flusher;
  c.state = Cache::State::kLive;
  return &c;
}

/// A free block of class `cls` from the calling thread's cache, which an
/// empty cache refills from its spare or with one batch from the shared
/// pool; nullptr when both are empty.
void* take_block(Cache& c, std::size_t cls) {
  Stack& loaded = c.loaded[cls];
  if (loaded.count == 0) {
    Stack& spare = c.spare[cls];
    loaded = spare.count != 0 ? std::exchange(spare, {})
                              : shared_pool().take(cls);
    if (loaded.count == 0) return nullptr;
  }
  return loaded.pop();
}

/// Park a free block of class `cls` in the calling thread's cache. A cache
/// holding two batches of the class hands the older one to the shared
/// pool; after thread exit the block goes there directly.
void park_block(void* p, std::size_t cls, std::uint32_t batch) {
  Cache* c = thread_cache();
  if (c == nullptr) {
    Stack one;
    one.push(p);
    shared_pool().give(cls, one);
    return;
  }
  Stack& loaded = c->loaded[cls];
  if (loaded.count >= batch) {
    Stack& spare = c->spare[cls];
    if (spare.count != 0) shared_pool().give(cls, spare);
    spare = std::exchange(loaded, {});
  }
  loaded.push(p);
}

}  // namespace

Buffer Buffer::alloc(std::size_t n) {
  if (n == 0) return Buffer{};
  // After thread exit the cache is gone: a late allocation skips the pool,
  // and nothing keeps its counts.
  Cache* c = thread_cache();
  PoolStats late;
  PoolStats& stats = c != nullptr ? c->stats : late;
  ++stats.allocs;
  Block* b = nullptr;
  const std::size_t cls = class_for(n);
  if (cls < kNumClasses) {
    void* mem = c != nullptr ? take_block(*c, cls) : nullptr;
    if (mem != nullptr) {
      ++stats.pool_hits;
    } else {
      mem = ::operator new(kHeaderBytes + class_bytes(cls));
    }
    b = static_cast<Block*>(mem);
    b->size_class = static_cast<std::uint8_t>(cls);
  } else {
    ++stats.oversized;
    b = static_cast<Block*>(::operator new(kHeaderBytes + n));
    b->size_class = kOversized;
  }
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
  if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    block_ = nullptr;
    return;
  }
  if (block_->size_class == kOversized) {
    ::operator delete(block_);
  } else {
    static constexpr auto kBatch = batch_sizes(kHeaderBytes);
    park_block(block_, block_->size_class, kBatch[block_->size_class]);
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

Buffer::PoolStats Buffer::pool_stats() {
  PoolStats s;
  if (const Cache* c = thread_cache()) {
    s = c->stats;
    s.free_blocks = c->blocks();
  }
  s.free_blocks += shared_pool().blocks();
  return s;
}

void Buffer::trim_pool() {
  if (Cache* c = thread_cache()) c->flush();
  shared_pool().trim();
}

}  // namespace mel::util

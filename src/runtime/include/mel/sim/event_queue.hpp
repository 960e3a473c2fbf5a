// Event queue for the discrete-event simulator hot path. Two parts:
//
//   1. EventFn: a move-only callable with a 64-byte small-buffer so every
//      closure the substrate schedules (delivery, wake, put-landing,
//      collective completion) lives inline in the queue's storage — no
//      per-event heap allocation, no std::function type-erasure overhead.
//
//   2. EventQueue: one binary min-heap of 24-byte (time, seq, slab index)
//      keys over a free-listed slab of EventFn closures. The closures sit
//      still while the heap sifts; push and pop are O(log n) key moves.
//
// Ordering contract: events pop in strict ascending (time, sequence),
// where sequence is assigned at push in call order (or chosen by the
// caller through push_keyed). The determinism pin test freezes the full
// (time, sequence) trace hash.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "mel/sim/time.hpp"

namespace mel::sim {

/// Move-only type-erased callable `void(Time)` (also accepts plain
/// `void()` callables) with 64 bytes of inline storage. Closures that fit
/// are stored in place; larger ones fall back to a single heap node. The
/// substrate's hot-path closures are all sized to fit — see the static
/// asserts at the call sites' tests.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  /// Replace the held callable in place. The slab-reuse path: builds the
  /// new closure directly in this object's storage instead of routing a
  /// temporary EventFn through an extra 80-byte move.
  template <class F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      *this = std::forward<F>(f);
    } else {
      destroy();
      construct(std::forward<F>(f));
    }
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      destroy();
      move_from(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { destroy(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()(Time t) { invoke_(storage_, t); }

 private:
  struct Ops {
    // Move payload dst <- src and destroy src's; null = raw byte copy.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* p) noexcept;  // null = trivially destructible
  };

  template <class F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](void* p, Time t) { call(*static_cast<D*>(p), t); };
      if constexpr (std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>) {
        ops_ = nullptr;
      } else {
        ops_ = &kInlineOps<D>;
      }
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      invoke_ = [](void* p, Time t) { call(**static_cast<D**>(p), t); };
      ops_ = &kHeapOps<D>;
    }
  }

  template <class D>
  static void call(D& d, Time t) {
    if constexpr (std::is_invocable_v<D&, Time>) {
      d(t);
    } else {
      d();
    }
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      nullptr,  // relocating a heap node is a pointer copy
      [](void* p) noexcept { delete *static_cast<D**>(p); }};

  void move_from(EventFn& o) noexcept {
    invoke_ = o.invoke_;
    ops_ = o.ops_;
    if (invoke_ != nullptr) {
      if (ops_ != nullptr && ops_->relocate != nullptr) {
        ops_->relocate(storage_, o.storage_);
      } else {
        std::memcpy(storage_, o.storage_, kInlineBytes);
      }
    }
    o.invoke_ = nullptr;
    o.ops_ = nullptr;
  }

  void destroy() noexcept {
    if (invoke_ != nullptr && ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(storage_);
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  void (*invoke_)(void*, Time) = nullptr;
  const Ops* ops_ = nullptr;
};

/// Binary min-heap of events popping in strict ascending (time, sequence).
///
/// Every closure is stored exactly once, in a slab recycled through a
/// free list; the heap holds only 24-byte (time, seq, slab index) keys.
/// Sifts shuffle PODs — an EventFn moves twice in its life: into the slab
/// at push, out at pop.
class EventQueue {
 public:
  struct Event {
    Time t = 0;
    std::uint64_t seq = 0;
    EventFn fn;
  };

  /// Ordering key of one queued event. `t` and `seq` are the queue's
  /// full ordering contract; `idx` locates the closure in the slab.
  struct Key {
    Time t;
    std::uint64_t seq;
    std::uint32_t idx;
  };

  /// Queue `fn` (any callable EventFn accepts) at time `t`. A template so
  /// the closure is built directly in its slab slot — no intermediate
  /// EventFn temporaries on the hot path.
  template <class F>
  void push(Time t, F&& fn) {
    push_keyed(t, next_seq_++, std::forward<F>(fn));
  }

  /// Queue `fn` at time `t` under a caller-chosen sequence number instead
  /// of the internal counter. The sharded engine uses this to (a) replay
  /// merged cross-shard events into a destination shard's queue under
  /// their globally assigned sequence and (b) tag intra-window pushes with
  /// provisional sequences from the simulator's kProvBase up. The caller
  /// owns the ordering contract: keys must stay unique.
  template <class F>
  void push_keyed(Time t, std::uint64_t seq, F&& fn) {
    heap_.push_back(Key{t, seq, store(std::forward<F>(fn))});
    std::push_heap(heap_.begin(), heap_.end(), key_after);
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }
  std::uint64_t seqs_issued() const noexcept { return next_seq_; }

  /// Key of the next event. Callers that only need "what pops next" (the
  /// simulator's horizon check and trace hash) never touch the closure.
  /// Requires !empty().
  Key peek() const noexcept { return heap_.front(); }

  /// Remove and return the next event. Requires !empty().
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), key_after);
    const Key k = heap_.back();
    heap_.pop_back();
    Event ev{k.t, k.seq, std::move(fns_[k.idx])};
    free_.push_back(k.idx);
    return ev;
  }

 private:
  /// Park the closure in the slab, reusing a freed slot when one exists.
  template <class F>
  std::uint32_t store(F&& fn) {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      fns_[idx].assign(std::forward<F>(fn));
      return idx;
    }
    fns_.emplace_back(std::forward<F>(fn));
    return static_cast<std::uint32_t>(fns_.size() - 1);
  }

  // Min-heap comparator on (time, seq): std::*_heap build max-heaps, so
  // "a after b" puts the earliest key at the front.
  static bool key_after(const Key& a, const Key& b) noexcept {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }

  // Closure slab + free list. Indices are stable for an event's lifetime;
  // capacity tracks the high-water outstanding-event count and is reused
  // forever after (zero steady-state allocation).
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_;

  std::vector<Key> heap_;  // min-heap on (time, seq) via key_after
  std::uint64_t next_seq_ = 0;
};

}  // namespace mel::sim

// Single-writer append-mostly vector with lock-free snapshot reads.
//
// The store's adjacency lists (friend lists, per-creator message lists,
// forum members, likes) are insert-only and read by many query threads at
// once. RcuVector publishes a buffer whose header carries its own element
// count, so a reader obtains a consistent (data, size) snapshot with one
// pointer chase and no lock:
//
//   * push_back / append: the elements are written into reserved capacity
//     *before* the buffer-local size is bumped with one release store, so
//     a reader that observes the new size also observes every element of
//     the append (capacity at least doubles on growth; the old buffer is
//     retired into the process's epoch domain);
//   * insert_sorted: always copy-on-write — a fully built replacement
//     buffer is published with a release store, because shifting elements
//     in place would tear concurrent readers.
//
// Because size lives inside the buffer, a reader can never pair a stale
// size with a different buffer — the snapshot is per-object atomic. The
// writer must be externally serialized (the store locks the write stripe of
// the entity that owns the vector).
//
// Readers must hold an EpochPin for as long as they dereference a View;
// the guard is what keeps retired buffers alive.
#ifndef SNB_UTIL_RCU_VECTOR_H_
#define SNB_UTIL_RCU_VECTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

#include "util/epoch.h"

namespace snb::util {

template <typename T>
class RcuVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "RcuVector elements are memcpy'd between buffers and freed "
                "without destruction");

 public:
  /// An immutable (data, size) snapshot. Valid while the reader's
  /// EpochPin is held (or, for writers/quiescent code, indefinitely
  /// until the vector is mutated).
  class View {
   public:
    View() = default;
    View(const T* data, size_t size) : data_(data), size_(size) {}
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }
    const T* data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T& operator[](size_t i) const { return data_[i]; }
    const T& front() const { return data_[0]; }
    const T& back() const { return data_[size_ - 1]; }

   private:
    const T* data_ = nullptr;
    size_t size_ = 0;
  };

  RcuVector() = default;
  RcuVector(const RcuVector&) = delete;
  RcuVector& operator=(const RcuVector&) = delete;
  ~RcuVector() {
    // Destruction implies quiescence; retired buffers are owned by the
    // epoch manager, only the live one is freed here.
    Buffer* b = buf_.load(std::memory_order_relaxed);
    if (b != nullptr) FreeBuffer(b);
  }

  /// Consistent snapshot: one acquire load of the buffer pointer, one
  /// acquire load of the buffer-resident size.
  View view() const {
    const Buffer* b = buf_.load(std::memory_order_acquire);
    if (b == nullptr) return View();
    return View(b->data(), b->size.load(std::memory_order_acquire));
  }

  size_t size() const { return view().size(); }
  bool empty() const { return size() == 0; }
  /// Single-element access through a fresh snapshot. `i` must be below a
  /// size obtained earlier from this vector (sizes only grow).
  const T& operator[](size_t i) const {
    return buf_.load(std::memory_order_acquire)->data()[i];
  }

  // ---- Writer API (externally serialized) -------------------------------

  void push_back(const T& value) {
    Buffer* b = buf_.load(std::memory_order_relaxed);
    size_t n = b == nullptr ? 0 : b->size.load(std::memory_order_relaxed);
    if (b == nullptr || n == b->capacity) {
      b = Grow(b, n);
    }
    b->data()[n] = value;
    b->size.store(n + 1, std::memory_order_release);
  }

  /// Appends `count` elements as one publication: the buffer grows at most
  /// once and the size is release-stored once, so a reader sees all of
  /// them or none.
  void append(const T* values, size_t count) {
    if (count == 0) return;
    Buffer* b = buf_.load(std::memory_order_relaxed);
    size_t n = b == nullptr ? 0 : b->size.load(std::memory_order_relaxed);
    if (b == nullptr || b->capacity - n < count) {
      b = Grow(b, n, n + count);
    }
    std::memcpy(b->data() + n, values, count * sizeof(T));
    b->size.store(n + count, std::memory_order_release);
  }

  /// Copy-on-write insertion keeping `less` order (stable for equals:
  /// inserts after the last equal element). Appends in place when the value
  /// sorts last — the common case for datagen's mostly-ordered edge
  /// streams.
  template <typename Less>
  void insert_sorted(const T& value, Less less) {
    Buffer* old = buf_.load(std::memory_order_relaxed);
    size_t n = old == nullptr ? 0 : old->size.load(std::memory_order_relaxed);
    const T* src = old == nullptr ? nullptr : old->data();
    size_t pos = std::upper_bound(src, src + n, value, less) - src;
    if (pos == n) {
      push_back(value);
      return;
    }
    size_t cap = old->capacity < n + 1 ? old->capacity * 2 : old->capacity;
    Buffer* fresh = AllocBuffer(cap);
    if (pos > 0) std::memcpy(fresh->data(), src, pos * sizeof(T));
    fresh->data()[pos] = value;
    std::memcpy(fresh->data() + pos + 1, src + pos, (n - pos) * sizeof(T));
    fresh->size.store(n + 1, std::memory_order_relaxed);
    buf_.store(fresh, std::memory_order_release);
    RetireBuffer(old);
  }

  /// Allocated element capacity in bytes (storage accounting).
  size_t capacity_bytes() const {
    const Buffer* b = buf_.load(std::memory_order_acquire);
    return b == nullptr ? 0 : b->capacity * sizeof(T);
  }

 private:
  static constexpr size_t kMinCapacity = 4;

  struct Buffer {
    size_t capacity;
    std::atomic<size_t> size;

    T* data() { return reinterpret_cast<T*>(this + 1); }
    const T* data() const { return reinterpret_cast<const T*>(this + 1); }
  };
  static_assert(alignof(T) <= alignof(Buffer),
                "element alignment exceeds buffer header alignment");

  static Buffer* AllocBuffer(size_t capacity) {
    void* raw = ::operator new(sizeof(Buffer) + capacity * sizeof(T));
    Buffer* b = new (raw) Buffer;
    b->capacity = capacity;
    b->size.store(0, std::memory_order_relaxed);
    return b;
  }

  static void FreeBuffer(Buffer* b) {
    b->~Buffer();
    ::operator delete(static_cast<void*>(b));
  }

  static void RetireBuffer(Buffer* b) {
    EpochManager::Global().Retire(static_cast<void*>(b), [](void* p) {
      FreeBuffer(static_cast<Buffer*>(p));
    });
  }

  /// Publishes a copy of the first `n` elements in a buffer with room for
  /// at least `min_capacity`.
  Buffer* Grow(Buffer* old, size_t n, size_t min_capacity = 0) {
    size_t cap = old == nullptr ? kMinCapacity : old->capacity * 2;
    if (cap < min_capacity) cap = min_capacity;
    Buffer* fresh = AllocBuffer(cap);
    if (n > 0) std::memcpy(fresh->data(), old->data(), n * sizeof(T));
    fresh->size.store(n, std::memory_order_relaxed);
    buf_.store(fresh, std::memory_order_release);
    if (old != nullptr) RetireBuffer(old);
    return fresh;
  }

  std::atomic<Buffer*> buf_{nullptr};
};

}  // namespace snb::util

#endif  // SNB_UTIL_RCU_VECTOR_H_

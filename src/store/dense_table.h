// Chunked entity table with lock-free reads and stable record addresses.
//
// Datagen emits dense ids (persons and messages count up from zero; forum
// ids are owner_id * slots_per_person + slot, i.e. bounded by a small
// multiple of the person count), so an id-indexed table beats a hash map on
// the hot lookup path: one shift, one directory load, one chunk load. The
// concurrency problem with a plain vector is that growth moves records out
// from under lock-free readers; DenseTable fixes both:
//
//   * records live in fixed-size chunks that never move once allocated, so
//     a reader-held record pointer stays valid for the store's lifetime;
//   * the chunk directory grows copy-on-write and is published with a
//     release store (the old directory is retired into the process's
//     epoch domain); chunk pointers inside a directory are themselves
//     atomic, so allocating a chunk never copies the directory;
//   * absent chunks stay nullptr, which keeps sparse id ranges (the forum
//     id space) cheap.
//
// A slot's existence is a separate concern from its address: callers embed
// a `ready` flag in T and publish it with a release store after filling the
// record, and readers check it with an acquire load. Writers may grow the
// table concurrently: chunk and directory creation run under `grow_mu_`,
// and `bound_` rises by compare-and-swap, so no slot or chunk is ever
// allocated twice. Filling a slot is the caller's business (the store locks
// the entity's stripe). A caller that another thread may race with
// GrowToSlot, reader or writer, holds an EpochPin while it dereferences
// (only the retired directories need it — records and chunks are never
// freed before the table itself).
#ifndef SNB_STORE_DENSE_TABLE_H_
#define SNB_STORE_DENSE_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "util/epoch.h"
#include "util/mutex.h"

namespace snb::store {

template <typename T, size_t kChunkSize = 1024>
class DenseTable {
  static_assert((kChunkSize & (kChunkSize - 1)) == 0,
                "chunk size must be a power of two");

 public:
  DenseTable() = default;
  DenseTable(const DenseTable&) = delete;
  DenseTable& operator=(const DenseTable&) = delete;

  ~DenseTable() {
    Directory* d = dir_.load(std::memory_order_relaxed);
    if (d == nullptr) return;
    for (size_t c = 0; c < d->capacity; ++c) {
      delete d->chunks()[c].load(std::memory_order_relaxed);
    }
    FreeDirectory(d);
  }

  /// Lock-free address lookup; nullptr when the id's chunk was never
  /// allocated. A non-null result may still be an empty slot — the caller
  /// checks T's ready flag.
  const T* Slot(uint64_t id) const {
    const Directory* d = dir_.load(std::memory_order_acquire);
    if (d == nullptr) return nullptr;
    uint64_t c = id / kChunkSize;
    if (c >= d->capacity) return nullptr;
    const Chunk* ch = d->chunks()[c].load(std::memory_order_acquire);
    if (ch == nullptr) return nullptr;
    return &ch->slots[id & (kChunkSize - 1)];
  }

  /// One past the largest id ever grown to (monotonic).
  uint64_t bound() const { return bound_.load(std::memory_order_acquire); }

  // ---- Writer API (concurrent callers) ----------------------------------

  /// Ensures id's chunk exists and returns the slot's stable address. The
  /// lock-free path serves ids whose chunk exists; a new chunk or a larger
  /// directory is made under `grow_mu_`.
  T* GrowToSlot(uint64_t id) {
    const uint64_t c = id / kChunkSize;
    Chunk* ch = nullptr;
    const Directory* d = dir_.load(std::memory_order_acquire);
    if (d != nullptr && c < d->capacity) {
      ch = d->chunks()[c].load(std::memory_order_acquire);
    }
    if (ch == nullptr) ch = GrowChunk(c);
    uint64_t bound = bound_.load(std::memory_order_relaxed);
    while (id + 1 > bound &&
           !bound_.compare_exchange_weak(bound, id + 1,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
    return &ch->slots[id & (kChunkSize - 1)];
  }

  /// Writer-side lookup without allocation.
  T* MutableSlot(uint64_t id) {
    return const_cast<T*>(Slot(id));
  }

  /// Slots backed by an allocated chunk (allocated chunks × kChunkSize).
  /// With bound() this gives table occupancy: sparse id ranges (forums)
  /// allocate far fewer slots than their bound suggests.
  uint64_t allocated_slots() const {
    const Directory* d = dir_.load(std::memory_order_acquire);
    if (d == nullptr) return 0;
    uint64_t chunks = 0;
    for (size_t c = 0; c < d->capacity; ++c) {
      if (d->chunks()[c].load(std::memory_order_acquire) != nullptr) {
        ++chunks;
      }
    }
    return chunks * kChunkSize;
  }

  /// Directory + chunk overhead in bytes, excluding what T owns.
  uint64_t overhead_bytes() const {
    const Directory* d = dir_.load(std::memory_order_acquire);
    if (d == nullptr) return 0;
    uint64_t bytes = sizeof(Directory) +
                     d->capacity * sizeof(std::atomic<Chunk*>);
    for (size_t c = 0; c < d->capacity; ++c) {
      if (d->chunks()[c].load(std::memory_order_acquire) != nullptr) {
        bytes += sizeof(Chunk);
      }
    }
    return bytes;
  }

 private:
  static constexpr size_t kMinDirCapacity = 8;

  struct Chunk {
    T slots[kChunkSize];
  };

  struct Directory {
    size_t capacity;

    std::atomic<Chunk*>* chunks() {
      return reinterpret_cast<std::atomic<Chunk*>*>(this + 1);
    }
    const std::atomic<Chunk*>* chunks() const {
      return reinterpret_cast<const std::atomic<Chunk*>*>(this + 1);
    }
  };

  /// The chunk of index `c`, made (with a larger directory if needed)
  /// unless another writer made it first.
  Chunk* GrowChunk(uint64_t c) {
    util::MutexLock lock(&grow_mu_);
    // dir_ and chunk entries change only under grow_mu_, so relaxed loads
    // see the latest values here.
    Directory* d = dir_.load(std::memory_order_relaxed);
    if (d == nullptr || c >= d->capacity) {
      size_t cap = d == nullptr ? kMinDirCapacity : d->capacity;
      while (cap <= c) cap *= 2;
      Directory* fresh = AllocDirectory(cap);
      size_t old_cap = d == nullptr ? 0 : d->capacity;
      for (size_t i = 0; i < old_cap; ++i) {
        fresh->chunks()[i].store(
            d->chunks()[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      dir_.store(fresh, std::memory_order_release);
      if (d != nullptr) {
        util::EpochManager::Global().Retire(
            static_cast<void*>(d),
            [](void* p) { FreeDirectory(static_cast<Directory*>(p)); });
      }
      d = fresh;
    }
    std::atomic<Chunk*>& entry = d->chunks()[c];
    Chunk* ch = entry.load(std::memory_order_relaxed);
    if (ch == nullptr) {
      ch = new Chunk();
      entry.store(ch, std::memory_order_release);
    }
    return ch;
  }

  static Directory* AllocDirectory(size_t capacity) {
    void* raw = ::operator new(sizeof(Directory) +
                               capacity * sizeof(std::atomic<Chunk*>));
    Directory* d = new (raw) Directory;
    d->capacity = capacity;
    for (size_t i = 0; i < capacity; ++i) {
      new (d->chunks() + i) std::atomic<Chunk*>(nullptr);
    }
    return d;
  }

  static void FreeDirectory(Directory* d) {
    // Directory and its atomic pointers are trivially destructible.
    ::operator delete(static_cast<void*>(d));
  }

  std::atomic<Directory*> dir_{nullptr};
  std::atomic<uint64_t> bound_{0};
  /// Serializes chunk and directory creation (see GrowChunk).
  util::Mutex grow_mu_;
};

}  // namespace snb::store

#endif  // SNB_STORE_DENSE_TABLE_H_

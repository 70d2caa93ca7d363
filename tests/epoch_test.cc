// Tests for the epoch-based-reclamation primitives behind the store's
// lock-free read path: EpochManager, RcuVector, DenseTable.
//
// Every case runs in the process's one epoch domain. The EpochManager
// cases drain it first, so garbage left by an earlier case cannot skew
// their counts.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "store/dense_table.h"
#include "util/epoch.h"
#include "util/rcu_vector.h"

namespace snb::util {
namespace {

TEST(EpochManagerTest, RetireFreesAfterTwoAdvances) {
  EpochManager& epoch = EpochManager::Global();
  epoch.DrainForTesting();
  epoch.Retire(new int(42));
  EXPECT_EQ(epoch.pending(), 1u);
  uint64_t before = epoch.epoch();
  epoch.TryReclaim();  // Advance 1: garbage not yet old enough.
  EXPECT_EQ(epoch.pending(), 1u);
  epoch.TryReclaim();  // Advance 2: retire epoch + 2 reached.
  EXPECT_EQ(epoch.pending(), 0u);
  EXPECT_GE(epoch.epoch(), before + 2);
}

TEST(EpochManagerTest, PinnedReaderBlocksReclamation) {
  EpochManager& epoch = EpochManager::Global();
  epoch.DrainForTesting();
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochPin pin = epoch.pin();
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  epoch.Retire(new int(1));
  // The reader's pin caps advancement at one epoch past its pin, which is
  // one short of the retire epoch + 2 free rule.
  for (int i = 0; i < 10; ++i) epoch.TryReclaim();
  EXPECT_EQ(epoch.pending(), 1u);
  release.store(true, std::memory_order_release);
  reader.join();
  epoch.DrainForTesting();
  EXPECT_EQ(epoch.pending(), 0u);
}

TEST(EpochManagerTest, NestedPinsKeepOuterPin) {
  EpochManager& epoch = EpochManager::Global();
  epoch.DrainForTesting();
  EpochPin outer = epoch.pin();
  {
    EpochPin inner = epoch.pin();  // Nested: only a TLS counter bump.
  }
  // Still pinned by the outer pin: garbage must survive.
  epoch.Retire(new int(7));
  for (int i = 0; i < 10; ++i) epoch.TryReclaim();
  EXPECT_EQ(epoch.pending(), 1u);
  {
    EpochPin released = std::move(outer);  // Capability moves with the pin.
    EXPECT_FALSE(outer.engaged());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(released.engaged());
  }
  epoch.DrainForTesting();
  EXPECT_EQ(epoch.pending(), 0u);
}

TEST(EpochManagerTest, ExitedThreadsReturnTheirSlots) {
  // More threads than slots, one alive at a time, each taking one pin: a
  // thread that kept its slot past exit would make a later pin abort in
  // ClaimSlot.
  constexpr size_t kThreads = 300;
  static_assert(kThreads > EpochManager::kMaxThreads);
  EpochManager& epoch = EpochManager::Global();
  epoch.DrainForTesting();
  for (size_t i = 0; i < kThreads; ++i) {
    std::thread([&epoch] { EpochPin pin = epoch.pin(); }).join();
  }
  // No exited thread left a pin behind to hold the epoch back.
  epoch.Retire(new int(3));
  epoch.TryReclaim();
  epoch.TryReclaim();
  EXPECT_EQ(epoch.pending(), 0u);
}

TEST(RcuVectorTest, PushBackGrowsAndKeepsValues) {
  RcuVector<uint64_t> v;
  for (uint64_t i = 0; i < 1000; ++i) v.push_back(i * 3);
  auto view = v.view();
  ASSERT_EQ(view.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(view[i], i * 3);
  EXPECT_GE(v.capacity_bytes(), 1000 * sizeof(uint64_t));
}

TEST(RcuVectorTest, InsertSortedKeepsOrder) {
  RcuVector<int> v;
  auto less = [](int a, int b) { return a < b; };
  for (int x : {7, 2, 9, 1, 4, 9, 0, 3}) v.insert_sorted(x, less);
  auto view = v.view();
  ASSERT_EQ(view.size(), 8u);
  for (size_t i = 1; i < view.size(); ++i) {
    EXPECT_LE(view[i - 1], view[i]);
  }
}

TEST(RcuVectorTest, ViewsStayConsistentUnderConcurrentAppend) {
  // Element i holds value i+1: any (data, size) snapshot must satisfy
  // data[i] == i+1 for all i < size, and sizes only grow.
  EpochManager& epoch = EpochManager::Global();
  RcuVector<uint64_t> v;
  constexpr uint64_t kTotal = 20000;
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      EpochPin pin = epoch.pin();
      size_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto view = v.view();
        if (view.size() < last_size) errors.fetch_add(1);
        last_size = view.size();
        for (size_t i = 0; i < view.size(); ++i) {
          if (view[i] != i + 1) {
            errors.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (uint64_t i = 0; i < kTotal; ++i) v.push_back(i + 1);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(v.size(), kTotal);
  epoch.DrainForTesting();
}

TEST(RcuVectorTest, AppendCrossesCapacityAndKeepsValues) {
  EpochManager& epoch = EpochManager::Global();
  RcuVector<uint32_t> v;
  std::vector<uint32_t> expected;
  v.append(nullptr, 0);  // Empty append on an empty vector.
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity_bytes(), 0u);
  // Chunk sizes straddle the doubling capacities (4, 8, 16, ...), and one
  // chunk alone outgrows the doubled capacity.
  uint32_t next = 0;
  for (size_t chunk : {3, 1, 0, 5, 2, 40, 0, 7}) {
    std::vector<uint32_t> values;
    for (size_t i = 0; i < chunk; ++i) values.push_back(next++ * 7);
    v.append(values.data(), values.size());
    expected.insert(expected.end(), values.begin(), values.end());
    auto view = v.view();
    ASSERT_EQ(view.size(), expected.size());
    EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin()));
    EXPECT_GE(v.capacity_bytes(), expected.size() * sizeof(uint32_t));
  }
  v.push_back(1);  // push_back continues after an append.
  EXPECT_EQ(v.size(), expected.size() + 1);
  EXPECT_EQ(v[expected.size()], 1u);
  epoch.DrainForTesting();
}

TEST(RcuVectorTest, ConcurrentReadersNeverSeePartialAppend) {
  // Append k holds k + 1 copies of the value k + 1, so a consistent
  // snapshot is a run of complete appends: its size is a triangular
  // number and the values step up by one at each append boundary. A
  // reader that saw an append's size before its elements, or half of one,
  // would see a size in between or a stale value.
  EpochManager& epoch = EpochManager::Global();
  RcuVector<uint64_t> v;
  constexpr uint64_t kAppends = 300;
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        EpochPin pin = epoch.pin();
        auto view = v.view();
        size_t pos = 0;
        for (uint64_t k = 0; pos < view.size(); ++k) {
          if (view.size() - pos < k + 1) {
            errors.fetch_add(1);  // A partial append.
            break;
          }
          for (uint64_t i = 0; i <= k; ++i) {
            if (view[pos++] != k + 1) errors.fetch_add(1);
          }
        }
      }
    });
  }
  std::vector<uint64_t> chunk;
  for (uint64_t k = 0; k < kAppends; ++k) {
    chunk.assign(k + 1, k + 1);
    v.append(chunk.data(), chunk.size());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(v.size(), kAppends * (kAppends + 1) / 2);
  epoch.DrainForTesting();
}

TEST(DenseTableTest, RecordsKeepStableAddressesAcrossGrowth) {
  EpochManager& epoch = EpochManager::Global();
  store::DenseTable<uint64_t> table;
  uint64_t* first = table.GrowToSlot(0);
  *first = 111;
  // Growing far past the current directory must not move existing slots.
  uint64_t* far = table.GrowToSlot(1u << 20);
  *far = 222;
  EXPECT_EQ(table.Slot(0), first);
  EXPECT_EQ(*table.Slot(0), 111u);
  EXPECT_EQ(*table.Slot(1u << 20), 222u);
  EXPECT_EQ(table.bound(), (1u << 20) + 1);
  epoch.DrainForTesting();
}

TEST(DenseTableTest, ConcurrentGrowthKeepsAddressesStable) {
  // Four writers grow one table at once, each owning every fourth id, so
  // they cross the same chunk and directory boundaries together. Two run
  // ascending and two descending, so a directory is replaced while other
  // writers read it. A slot keeps the address it was first returned at,
  // no chunk is made twice, and the bound ends at the largest id + 1.
  EpochManager& epoch = EpochManager::Global();
  constexpr size_t kChunk = 8;
  constexpr int kThreads = 4;
  constexpr uint64_t kSteps = 2048;
  constexpr uint64_t kIds = kSteps * kThreads;  // The directory doubles 7x.
  store::DenseTable<std::atomic<uint64_t>, kChunk> table;
  std::vector<std::atomic<uint64_t>*> addresses(kIds, nullptr);
  std::atomic<int> started{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const bool ascending = t < 2;
      auto id_at = [&](uint64_t k) {
        return (ascending ? k : kSteps - 1 - k) * kThreads +
               static_cast<uint64_t>(t);
      };
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (uint64_t k = 0; k < kSteps; ++k) {
        // A directory another writer retires stays readable while pinned.
        EpochPin pin = epoch.pin();
        const uint64_t id = id_at(k);
        std::atomic<uint64_t>* slot = table.GrowToSlot(id);
        slot->store(id + 1, std::memory_order_relaxed);
        addresses[id] = slot;
        // Slots grown 1, 2, 4, ... steps ago kept their address and value.
        for (uint64_t back = 1; back <= k; back *= 2) {
          const uint64_t prev = id_at(k - back);
          if (table.Slot(prev) != addresses[prev] ||
              table.GrowToSlot(prev) != addresses[prev] ||
              addresses[prev]->load(std::memory_order_relaxed) != prev + 1) {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(table.bound(), kIds);
  EXPECT_EQ(table.allocated_slots(), kIds);
  for (uint64_t id = 0; id < kIds; ++id) {
    ASSERT_EQ(table.Slot(id), addresses[id]) << id;
    ASSERT_EQ(table.Slot(id)->load(), id + 1) << id;
  }
  epoch.DrainForTesting();
}

TEST(DenseTableTest, UnallocatedChunksReadAsAbsent) {
  store::DenseTable<uint64_t> table;
  table.GrowToSlot(5);
  EXPECT_NE(table.Slot(5), nullptr);
  EXPECT_NE(table.Slot(6), nullptr);  // Same chunk: address exists.
  EXPECT_EQ(table.Slot(1u << 16), nullptr);  // Chunk never allocated.
  EXPECT_GT(table.overhead_bytes(), 0u);
}

}  // namespace
}  // namespace snb::util

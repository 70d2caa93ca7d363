// Tests for the Local/Global Dependency Services (Figure 7).
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/dependency_services.h"

namespace snb::driver {
namespace {

TEST(LdsTest, TliTracksLowestInFlight) {
  GlobalDependencyService gds;
  LocalDependencyService* lds = gds.AddStream();
  lds->Initiate(100);
  lds->Initiate(200);
  EXPECT_EQ(lds->TLI(), 100);
  lds->Complete(100);
  EXPECT_EQ(lds->TLI(), 200);
  lds->Complete(200);
  // IT empty: TLI stays at the last known floor.
  EXPECT_EQ(lds->TLI(), 200);
}

TEST(LdsTest, TlcAdvancesOnlyBehindTli) {
  GlobalDependencyService gds;
  LocalDependencyService* lds = gds.AddStream();
  lds->Initiate(100);
  lds->Initiate(200);
  lds->Initiate(300);
  // Out-of-order completion: 300 completes first but 100 still in flight.
  lds->Complete(300);
  EXPECT_LT(lds->TLC(), 100);
  lds->Complete(100);
  // Now TLI=200; completions below it (100) and also 300? 300 >= TLI stays.
  EXPECT_EQ(lds->TLC(), 100);
  lds->Complete(200);
  // Everything done; TLI floor = 300, all completions fold in.
  EXPECT_GE(lds->TLC(), 300 - 1);
}

TEST(LdsTest, MarkTimeAdvancesIdleStream) {
  GlobalDependencyService gds;
  LocalDependencyService* lds = gds.AddStream();
  lds->MarkTime(500);
  EXPECT_EQ(lds->TLI(), 500);
  EXPECT_GE(lds->TLC(), 499);
}

TEST(LdsTest, MonotoneUnderInterleaving) {
  GlobalDependencyService gds;
  LocalDependencyService* lds = gds.AddStream();
  TimestampMs last_tli = 0, last_tlc = 0;
  for (TimestampMs t = 10; t <= 1000; t += 10) {
    if (t % 30 == 0) {
      lds->Initiate(t);
      lds->Complete(t);
    } else {
      lds->MarkTime(t);
    }
    EXPECT_GE(lds->TLI(), last_tli);
    EXPECT_GE(lds->TLC(), last_tlc);
    last_tli = lds->TLI();
    last_tlc = lds->TLC();
  }
}

TEST(GdsTest, TgcIsMinAcrossStreams) {
  GlobalDependencyService gds;
  LocalDependencyService* a = gds.AddStream();
  LocalDependencyService* b = gds.AddStream();
  a->Initiate(100);
  b->Initiate(500);
  EXPECT_EQ(gds.TGI(), 100);
  EXPECT_LT(gds.TGC(), 100);
  a->Complete(100);
  a->MarkTime(600);
  // Now TGI = min(600, 500) = 500, and some TLC >= 499.
  EXPECT_EQ(gds.TGI(), 500);
  EXPECT_GE(gds.TGC(), 100);
  EXPECT_LT(gds.TGC(), 500);
  b->Complete(500);
  b->MarkTime(700);
  EXPECT_GE(gds.TGC(), 500);
}

TEST(GdsTest, WaitUnblocksWhenDependencyCompletes) {
  GlobalDependencyService gds;
  LocalDependencyService* producer = gds.AddStream();
  LocalDependencyService* consumer = gds.AddStream();
  consumer->MarkTime(1000);  // Consumer is ahead.

  producer->Initiate(100);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    gds.WaitUntilCompleted(100);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  producer->Complete(100);
  producer->MarkTime(kTimeMax);
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(GdsTest, ManyStreamsConcurrentProgress) {
  // Hammer the services from several threads; watermarks must stay monotone
  // and the final TGC must cover the whole range.
  GlobalDependencyService gds;
  constexpr int kStreams = 6;
  constexpr int kOpsPerStream = 2000;
  std::vector<LocalDependencyService*> streams;
  for (int s = 0; s < kStreams; ++s) streams.push_back(gds.AddStream());

  std::atomic<bool> failed{false};
  std::thread monitor([&] {
    TimestampMs last = 0;
    for (int i = 0; i < 200; ++i) {
      TimestampMs tgc = gds.TGC();
      if (tgc < last) failed.store(true);
      last = tgc;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::vector<std::thread> workers;
  for (int s = 0; s < kStreams; ++s) {
    workers.emplace_back([&, s] {
      LocalDependencyService* lds = streams[s];
      for (int i = 1; i <= kOpsPerStream; ++i) {
        TimestampMs t = static_cast<TimestampMs>(i) * 10 + s;
        if (i % 3 == 0) {
          lds->Initiate(t);
          lds->Complete(t);
        } else {
          lds->MarkTime(t);
        }
      }
      lds->MarkTime(kTimeMax);
    });
  }
  for (std::thread& t : workers) t.join();
  monitor.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(gds.TGC(), kOpsPerStream * 10);
}

TEST(GdsTest, WaitersRacingStreamsAllWake) {
  // Streams and waiters advance in rounds. In each round every stream
  // publishes progress past the round's end (dependencies in flight,
  // completed out of order, and time markers) while every waiter blocks on
  // a random time inside the round, and no stream starts the next round
  // before every waiter has returned. So a lost wake-up leaves a waiter
  // asleep with no later progress to rescue it: the deadline turns that
  // into a failure instead of a hang.
  constexpr int kStreams = 3;
  constexpr int kWaiters = 3;
  constexpr int kRounds = 3000;
  constexpr TimestampMs kRoundMs = 100;
  GlobalDependencyService gds;
  std::vector<LocalDependencyService*> streams;
  for (int s = 0; s < kStreams; ++s) streams.push_back(gds.AddStream());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::atomic<int> returned{0};  // Waits returned, over all waiters.
  std::atomic<int> waiters_done{0};
  std::atomic<bool> stalled{false};
  std::atomic<bool> woke_early{false};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      std::mt19937 rng(w + 1);
      for (int r = 0; r < kRounds; ++r) {
        TimestampMs t = r * kRoundMs + 1 +
                        static_cast<TimestampMs>(rng() % (kRoundMs - 1));
        gds.WaitUntilCompleted(t);
        if (gds.TGC() < t) woke_early.store(true);
        returned.fetch_add(1);
      }
      waiters_done.fetch_add(1);
    });
  }

  std::vector<std::thread> workers;
  for (int s = 0; s < kStreams; ++s) {
    workers.emplace_back([&, s] {
      LocalDependencyService* lds = streams[s];
      std::mt19937 rng(100 + s);
      for (int r = 0; r < kRounds; ++r) {
        while (returned.load() < r * kWaiters) {
          if (stalled.load() || std::chrono::steady_clock::now() > deadline) {
            stalled.store(true);
            return;
          }
          std::this_thread::yield();
        }
        for (int k = 0; k < 3; ++k) {
          TimestampMs t = r * kRoundMs + 1 + k * 30 + s;
          switch (rng() % 3) {
            case 0:
              lds->Initiate(t);
              lds->Complete(t);
              break;
            case 1:
              // Two in flight, completed newest first.
              lds->Initiate(t);
              lds->Initiate(t + 5);
              lds->Complete(t + 5);
              lds->Complete(t);
              break;
            default:
              lds->MarkTime(t);
          }
        }
        lds->MarkTime((r + 1) * kRoundMs);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  while (waiters_done.load() < kWaiters &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(stalled.load())
      << "a waiter slept through the progress that satisfied it";
  EXPECT_EQ(waiters_done.load(), kWaiters);
  // The stream threads are joined, so this thread owns the streams now:
  // progress past every time, announced until each waiter has woken,
  // ends the test even after a lost wake-up.
  for (LocalDependencyService* lds : streams) lds->MarkTime(kTimeMax);
  while (waiters_done.load() < kWaiters) {
    gds.NotifyProgress();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_FALSE(woke_early.load());
}

// A contract violation aborts in every build type, not only under assert.
TEST(LdsDeathTest, InitiateBelowFloorAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  GlobalDependencyService gds;
  LocalDependencyService* lds = gds.AddStream();
  lds->MarkTime(100);
  EXPECT_DEATH(lds->Initiate(50), "Initiate\\(50\\) below the floor 100");
  lds->Initiate(200);
  EXPECT_DEATH(lds->Initiate(150), "below the floor 200");
}

TEST(LdsDeathTest, CompleteWithoutInitiateAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  GlobalDependencyService gds;
  LocalDependencyService* lds = gds.AddStream();
  EXPECT_DEATH(lds->Complete(100), "Complete\\(100\\) without Initiate");
  lds->Initiate(100);
  lds->Complete(100);
  // A second Complete of the same time has no Initiate left to match.
  EXPECT_DEATH(lds->Complete(100), "Complete\\(100\\) without Initiate");
}

}  // namespace
}  // namespace snb::driver

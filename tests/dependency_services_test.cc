// Tests for the Local/Global Dependency Services (Figure 7).
#include <atomic>
#include <thread>

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

}  // namespace
}  // namespace snb::driver

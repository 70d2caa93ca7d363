#include "driver/dependency_services.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace snb::driver {

// ---- LocalDependencyService -------------------------------------------------

void LocalDependencyService::Initiate(TimestampMs t) {
  if (t < floor_) {
    std::fprintf(stderr,
                 "LocalDependencyService::Initiate(%lld) below the floor "
                 "%lld: initiated times must be monotone\n",
                 static_cast<long long>(t), static_cast<long long>(floor_));
    std::abort();
  }
  initiated_.insert(t);
  floor_ = t;
  Publish();
}

void LocalDependencyService::Complete(TimestampMs t) {
  auto it = initiated_.find(t);
  if (it == initiated_.end()) {
    std::fprintf(stderr,
                 "LocalDependencyService::Complete(%lld) without Initiate\n",
                 static_cast<long long>(t));
    std::abort();
  }
  initiated_.erase(it);
  completed_.insert(t);
  Publish();
}

void LocalDependencyService::MarkTime(TimestampMs t) {
  if (t <= floor_) return;
  floor_ = t;
  Publish();
}

void LocalDependencyService::Publish() {
  // TLI: lowest potentially in-flight time. Every completion strictly below
  // it is durable progress; fold it into the watermark. When nothing is in
  // flight, everything strictly below the floor has completed too.
  TimestampMs tli = initiated_.empty() ? floor_ : *initiated_.begin();
  auto end = completed_.lower_bound(tli);
  for (auto c = completed_.begin(); c != end; ++c) {
    completed_high_ = std::max(completed_high_, *c);
  }
  completed_.erase(completed_.begin(), end);
  if (initiated_.empty() && floor_ > 0) {
    completed_high_ = std::max(completed_high_, floor_ - 1);
  }
  tli_.store(tli);
  tlc_.store(completed_high_);
  if (gds_ != nullptr) gds_->NotifyProgress();
}

// ---- GlobalDependencyService ---------------------------------------------------

LocalDependencyService* GlobalDependencyService::AddStream() {
  util::MutexLock lock(&mu_);
  streams_.push_back(std::make_unique<LocalDependencyService>());
  streams_.back()->gds_ = this;
  return streams_.back().get();
}

TimestampMs GlobalDependencyService::TGI() const {
  TimestampMs tgi = kTimeMax;
  for (const auto& lds : streams_) tgi = std::min(tgi, lds->TLI());
  return tgi;
}

TimestampMs GlobalDependencyService::TGC() const {
  // Everything strictly below TGI has completed in every stream (TLI is the
  // lowest time that may still be in flight); the max-TLC cap keeps the
  // value attached to an actual completion watermark as in Figure 7.
  TimestampMs tgi = kTimeMax;
  TimestampMs max_tlc = 0;
  for (const auto& lds : streams_) {
    tgi = std::min(tgi, lds->TLI());
    max_tlc = std::max(max_tlc, lds->TLC());
  }
  if (tgi == kTimeMax) return max_tlc;
  return std::max<TimestampMs>(0, std::min(tgi - 1, max_tlc));
}

void GlobalDependencyService::WaitUntilCompleted(TimestampMs t) {
  util::MutexLock lock(&mu_);
  // Registered before the first T_GC test, so a stream that publishes after
  // that test sees the waiter and wakes it.
  waiters_.fetch_add(1);
  progress_.wait(lock, [&] { return TGC() >= t; });
  waiters_.fetch_sub(1);
}

void GlobalDependencyService::NotifyProgress() {
  if (waiters_.load() == 0) return;
  util::MutexLock lock(&mu_);
  progress_.notify_all();
}

}  // namespace snb::driver

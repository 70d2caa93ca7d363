#include "driver/dependency_services.h"

#include <algorithm>
#include <cassert>

namespace snb::driver {

// ---- LocalDependencyService -------------------------------------------------

void LocalDependencyService::Initiate(TimestampMs t) {
  {
    util::MutexLock lock(&mu_);
    assert(t >= floor_ && "initiated times must be monotone");
    initiated_.insert(t);
    if (t > floor_) floor_ = t;
    FoldLocked();
  }
  if (gds_ != nullptr) gds_->NotifyProgress();
}

void LocalDependencyService::Complete(TimestampMs t) {
  {
    util::MutexLock lock(&mu_);
    auto it = initiated_.find(t);
    assert(it != initiated_.end() && "Complete without Initiate");
    initiated_.erase(it);
    completed_.insert(t);
    FoldLocked();
  }
  if (gds_ != nullptr) gds_->NotifyProgress();
}

void LocalDependencyService::MarkTime(TimestampMs t) {
  {
    util::MutexLock lock(&mu_);
    if (t <= floor_) return;
    floor_ = t;
    FoldLocked();
  }
  if (gds_ != nullptr) gds_->NotifyProgress();
}

void LocalDependencyService::FoldLocked() {
  // TLI: lowest potentially in-flight time. Every completion strictly below
  // it is durable progress; fold it into the cached watermark. When nothing
  // is in flight, everything strictly below the floor has completed too.
  TimestampMs tli = initiated_.empty() ? floor_ : *initiated_.begin();
  auto end = completed_.lower_bound(tli);
  for (auto c = completed_.begin(); c != end; ++c) {
    completed_high_ = std::max(completed_high_, *c);
  }
  completed_.erase(completed_.begin(), end);
  if (initiated_.empty() && floor_ > 0) {
    completed_high_ = std::max(completed_high_, floor_ - 1);
  }
}

TimestampMs LocalDependencyService::TLI() const {
  util::MutexLock lock(&mu_);
  return initiated_.empty() ? floor_ : *initiated_.begin();
}

TimestampMs LocalDependencyService::TLC() const {
  util::MutexLock lock(&mu_);
  TimestampMs tli = initiated_.empty() ? floor_ : *initiated_.begin();
  TimestampMs tlc = completed_high_;
  if (initiated_.empty()) tlc = std::max(tlc, tli - 1);
  return tlc;
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
  progress_.wait(lock, [&] { return TGC() >= t; });
}

void GlobalDependencyService::NotifyProgress() {
  util::MutexLock lock(&mu_);
  progress_.notify_all();
}

}  // namespace snb::driver

// Microbenchmark of the sorted-set intersection kernels (src/exec):
// branch-free scalar merge vs galloping vs the adaptive Intersect() entry
// point, swept across list-length ratios from 1:1 to
// 1:1000 — the shapes friend-of-friend expansion and mutual-friend
// counting actually produce (comparable lists for two average persons,
// extreme ratios when a hub's list meets a small circle).
//
// Every (ratio, kernel) cell is cross-checked against
// std::set_intersection before timing; any divergence exits nonzero, so
// the bench doubles as a correctness gate (scripts/check.sh and CI run it
// with --smoke: small lists, one reported rep, full cross-check).
//
// With --perf-counters every (ratio, kernel) cell additionally reports
// hardware-counter columns (IPC, LLC misses and branch misses per kilo
// instruction) from a perf_event group scoped to the timed loop, so the
// scalar/gallop crossover can be read micro-architecturally: the
// galloping win past 1:64 shows up as fewer retired instructions. Where
// perf_event_open is denied the bench degrades to the wall-clock table.
//
// Usage: bench_micro_intersect [--smoke] [--perf-counters]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "exec/intersect.h"
#include "obs/perf_counters.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace snb::bench {
namespace {

using Kernel = size_t (*)(const uint64_t*, size_t, const uint64_t*, size_t,
                          uint64_t*);

/// Strictly ascending list of `n` ids with mean gap `gap` (controls how
/// interleaved the two lists are; gap 2 gives ~50% overlap density).
std::vector<uint64_t> MakeSortedList(uint64_t seed, size_t n, uint64_t gap) {
  util::Rng rng(seed);
  std::vector<uint64_t> out(n);
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v += 1 + rng.Next() % (2 * gap - 1);
    out[i] = v;
  }
  return out;
}

struct Cell {
  const char* name;
  Kernel kernel;
};

/// Prints one counter column ("ipc=2.31 llc/ki=0.2 br/ki=1.4" folded to
/// the per-kernel column width) or "-" when the cell has no counters.
void PrintHwCell(const obs::perf::HwCounts& hw) {
  if (!hw.valid()) {
    std::printf(" %10s", "-");
    return;
  }
  char cell[32];
  std::snprintf(cell, sizeof(cell), "%.2f/%.1f/%.1f", hw.Ipc(),
                hw.LlcMissesPerKiloInstr(), hw.BranchMissesPerKiloInstr());
  std::printf(" %10s", cell);
}

int RunSweep(bool smoke, bool perf_counters) {
  PrintHeader("micro: sorted-set intersection kernels (scalar/gallop)");
  if (perf_counters) EnablePerfCounters();

  const size_t base = smoke ? 512 : 4096;
  const size_t reps = smoke ? 3 : 200;
  const size_t ratios[] = {1, 4, 16, 64, 256, 1000};
  const Cell cells[] = {
      {"scalar", exec::IntersectScalar},
      {"gallop", exec::IntersectGalloping},
      {"adaptive", exec::Intersect},
  };

  std::printf("  %-8s %8s %9s", "ratio", "|a|", "|b|");
  for (const Cell& c : cells) std::printf(" %10s", c.name);
  std::printf("   (ns/output row; lower is better)\n");

  for (size_t ratio : ratios) {
    size_t na = base;
    size_t nb = base * ratio;
    // Match value ranges so the lists actually interleave at every ratio.
    std::vector<uint64_t> a = MakeSortedList(0x5eed + ratio, na, 2 * ratio);
    std::vector<uint64_t> b = MakeSortedList(0xcafe + ratio, nb, 2);
    std::vector<uint64_t> expect(std::min(na, nb));
    expect.resize(static_cast<size_t>(
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              expect.begin()) -
        expect.begin()));

    std::printf("  1:%-6zu %8zu %9zu", ratio, na, nb);
    std::array<obs::perf::HwCounts, std::size(cells)> cell_hw{};
    size_t cell_index = 0;
    for (const Cell& c : cells) {
      std::vector<uint64_t> out(std::min(na, nb));
      size_t n = c.kernel(a.data(), na, b.data(), nb, out.data());
      if (n != expect.size() ||
          !std::equal(expect.begin(), expect.end(), out.begin())) {
        std::fprintf(stderr,
                     "\nkernel %s disagrees with std::set_intersection at "
                     "ratio 1:%zu (%zu vs %zu rows)\n",
                     c.name, ratio, n, expect.size());
        return 1;
      }
      // IntersectCount must agree with the materializing kernels too.
      if (exec::IntersectCount(a.data(), na, b.data(), nb) != expect.size()) {
        std::fprintf(stderr, "\nIntersectCount disagrees at ratio 1:%zu\n",
                     ratio);
        return 1;
      }
      util::Stopwatch watch;
      obs::perf::ScopedHwCounts hw_scope;
      size_t sink = 0;
      for (size_t r = 0; r < reps; ++r) {
        sink += c.kernel(a.data(), na, b.data(), nb, out.data());
      }
      cell_hw[cell_index++] = hw_scope.Delta();
      uint64_t nanos = watch.ElapsedNanos();
      double per_row = sink == 0 ? 0.0
                                 : static_cast<double>(nanos) /
                                       static_cast<double>(sink);
      std::printf(" %10.2f", per_row);
    }
    std::printf("   |a∩b|=%zu\n", expect.size());
    if (obs::perf::CountersLive()) {
      std::printf("  %-8s %8s %9s", "", "", "hw:");
      for (const obs::perf::HwCounts& hw : cell_hw) PrintHwCell(hw);
      std::printf("   (ipc/llc per ki/br per ki)\n");
    }
  }
  std::printf(
      "\n  Expected shape: scalar wins near 1:1 (branch-free merge is\n"
      "  O(na+nb) but with tiny constants), galloping takes over past\n"
      "  ~1:%zu (O(na log nb)). `adaptive` should ride the envelope.\n\n",
      exec::kGallopRatio);
  return 0;
}

}  // namespace
}  // namespace snb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool perf_counters = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--perf-counters") == 0) {
      perf_counters = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--perf-counters]\n",
                   argv[0]);
      return 1;
    }
  }
  return snb::bench::RunSweep(smoke, perf_counters);
}

// Edge-case and differential tests for the sorted-set kernels (src/exec):
// every kernel (scalar merge, galloping, the adaptive entry point) against
// std::set_intersection on empty / disjoint / one-element / identical
// lists, every pair of short lengths, and randomized sweeps across length
// ratios. DifferenceSorted and IntersectCount get the same treatment
// against their std:: references.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exec/intersect.h"
#include "util/rng.h"

namespace snb::exec {
namespace {

using Kernel = size_t (*)(const uint64_t*, size_t, const uint64_t*, size_t,
                          uint64_t*);

struct NamedKernel {
  const char* name;
  Kernel kernel;
};

const NamedKernel kKernels[] = {
    {"scalar", IntersectScalar},
    {"gallop", IntersectGalloping},
    {"adaptive", Intersect},
};

std::vector<uint64_t> RefIntersect(const std::vector<uint64_t>& a,
                                   const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Runs every kernel on (a, b) AND (b, a) and checks the output (and
/// IntersectCount) against std::set_intersection.
void CheckAllKernels(const std::vector<uint64_t>& a,
                     const std::vector<uint64_t>& b) {
  std::vector<uint64_t> expect = RefIntersect(a, b);
  for (const NamedKernel& k : kKernels) {
    for (bool swapped : {false, true}) {
      const std::vector<uint64_t>& x = swapped ? b : a;
      const std::vector<uint64_t>& y = swapped ? a : b;
      std::vector<uint64_t> out(std::min(x.size(), y.size()) + 1, ~0ULL);
      size_t n = k.kernel(x.data(), x.size(), y.data(), y.size(), out.data());
      ASSERT_EQ(n, expect.size())
          << k.name << (swapped ? " (swapped)" : "") << " |a|=" << x.size()
          << " |b|=" << y.size();
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin()))
          << k.name << (swapped ? " (swapped)" : "");
      // The contract gives the kernel min(|a|, |b|) output slots; the
      // sentinel one past that must survive untouched.
      EXPECT_EQ(out[std::min(x.size(), y.size())], ~0ULL)
          << k.name << " wrote past min(na, nb)";
      EXPECT_EQ(IntersectCount(x.data(), x.size(), y.data(), y.size()),
                expect.size())
          << "IntersectCount" << (swapped ? " (swapped)" : "");
    }
  }
}

TEST(ExecIntersectTest, EmptyLists) {
  CheckAllKernels({}, {});
  CheckAllKernels({}, {1, 2, 3});
  CheckAllKernels({5}, {});
}

TEST(ExecIntersectTest, OneElementLists) {
  CheckAllKernels({7}, {7});
  CheckAllKernels({7}, {8});
  CheckAllKernels({7}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  CheckAllKernels({10}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
}

TEST(ExecIntersectTest, DisjointLists) {
  CheckAllKernels({1, 3, 5, 7, 9}, {2, 4, 6, 8, 10});
  CheckAllKernels({1, 2, 3, 4}, {100, 200, 300, 400});
  // Interleaved ranges, no common element, unequal lengths.
  CheckAllKernels({1, 4, 7, 10, 13}, {2, 5, 8, 11, 14, 17, 20});
}

TEST(ExecIntersectTest, IdenticalAndSubsetLists) {
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 37; ++i) base.push_back(3 * i + 1);
  CheckAllKernels(base, base);
  std::vector<uint64_t> subset = {base[0], base[9], base[17], base[36]};
  CheckAllKernels(subset, base);
}

TEST(ExecIntersectTest, ExtremeValues) {
  // Largest representable ids must not confuse the galloping bound
  // search.
  std::vector<uint64_t> a = {0, 1, ~0ULL - 1, ~0ULL};
  std::vector<uint64_t> b = {0, 2, ~0ULL};
  CheckAllKernels(a, b);
}

TEST(ExecIntersectTest, ShortLengthPairs) {
  // Every pair of lengths 0..9, with values drawn close together so the
  // lists share elements at their ends.
  util::Rng rng(0x9e37);
  for (size_t na = 0; na <= 9; ++na) {
    for (size_t nb = 0; nb <= 9; ++nb) {
      std::vector<uint64_t> a, b;
      uint64_t v = 1;
      for (size_t i = 0; i < na; ++i) a.push_back(v += 1 + rng.Next() % 3);
      v = 1;
      for (size_t i = 0; i < nb; ++i) b.push_back(v += 1 + rng.Next() % 3);
      CheckAllKernels(a, b);
    }
  }
}

TEST(ExecIntersectTest, RandomizedRatioSweep) {
  util::Rng rng(0x5eed);
  for (size_t ratio : {1, 2, 16, 64, 257}) {
    for (int round = 0; round < 8; ++round) {
      size_t na = 1 + rng.Next() % 64;
      size_t nb = na * ratio + rng.Next() % 5;
      std::vector<uint64_t> a, b;
      uint64_t v = 0;
      for (size_t i = 0; i < na; ++i) a.push_back(v += 1 + rng.Next() % (2 * ratio));
      v = 0;
      for (size_t i = 0; i < nb; ++i) b.push_back(v += 1 + rng.Next() % 3);
      CheckAllKernels(a, b);
    }
  }
}

TEST(ExecIntersectTest, DifferenceSorted) {
  auto check = [](const std::vector<uint64_t>& a,
                  const std::vector<uint64_t>& b) {
    std::vector<uint64_t> expect;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expect));
    std::vector<uint64_t> out(a.size() + 1, ~0ULL);
    size_t n = DifferenceSorted(a.data(), a.size(), b.data(), b.size(),
                                out.data());
    ASSERT_EQ(n, expect.size());
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin()));
  };
  check({}, {});
  check({}, {1, 2});
  check({1, 2, 3}, {});
  check({1, 2, 3}, {1, 2, 3});
  check({1, 3, 5, 7}, {2, 3, 6, 7, 8});
  util::Rng rng(0xd1ff);
  for (int round = 0; round < 16; ++round) {
    std::vector<uint64_t> a, b;
    uint64_t v = 0;
    size_t na = rng.Next() % 40, nb = rng.Next() % 40;
    for (size_t i = 0; i < na; ++i) a.push_back(v += 1 + rng.Next() % 3);
    v = 0;
    for (size_t i = 0; i < nb; ++i) b.push_back(v += 1 + rng.Next() % 3);
    check(a, b);
  }
}

TEST(ExecIntersectTest, OutputsAreStrictlyAscending) {
  // The duplicate-free invariant: strictly ascending inputs must yield
  // strictly ascending (hence duplicate-free) outputs from every kernel.
  util::Rng rng(0xa5ce);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> a, b;
    uint64_t v = 0;
    for (size_t i = 0; i < 100; ++i) a.push_back(v += 1 + rng.Next() % 2);
    v = 0;
    for (size_t i = 0; i < 100; ++i) b.push_back(v += 1 + rng.Next() % 2);
    for (const NamedKernel& k : kKernels) {
      std::vector<uint64_t> out(100);
      size_t n = k.kernel(a.data(), a.size(), b.data(), b.size(), out.data());
      for (size_t i = 1; i < n; ++i) {
        ASSERT_LT(out[i - 1], out[i]) << k.name;
      }
    }
  }
}

}  // namespace
}  // namespace snb::exec

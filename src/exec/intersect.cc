#include "exec/intersect.h"

#include <algorithm>

namespace snb::exec {

size_t IntersectScalar(const uint64_t* a, size_t na, const uint64_t* b,
                       size_t nb, uint64_t* out) {
  size_t i = 0, j = 0, k = 0;
  while (i < na && j < nb) {
    uint64_t va = a[i];
    uint64_t vb = b[j];
    // Unconditional store + conditional index bumps: no branch inside the
    // body, a mispredict-free pattern the compiler can keep if-converted.
    out[k] = va;
    k += static_cast<size_t>(va == vb);
    i += static_cast<size_t>(va <= vb);
    j += static_cast<size_t>(vb <= va);
  }
  return k;
}

namespace {

/// First index in [lo, n) with arr[index] >= key, found by doubling then
/// binary search — O(log distance) instead of O(log n), which is what
/// makes per-element probing cheap when consecutive keys land close
/// together.
size_t GallopLowerBound(const uint64_t* arr, size_t n, size_t lo,
                        uint64_t key) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < n && arr[hi] < key) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > n) hi = n;
  return static_cast<size_t>(
      std::lower_bound(arr + lo, arr + hi, key) - arr);
}

}  // namespace

size_t IntersectGalloping(const uint64_t* a, size_t na, const uint64_t* b,
                          size_t nb, uint64_t* out) {
  // Probe with the shorter list into the longer one.
  if (na > nb) return IntersectGalloping(b, nb, a, na, out);
  size_t j = 0, k = 0;
  for (size_t i = 0; i < na; ++i) {
    j = GallopLowerBound(b, nb, j, a[i]);
    if (j == nb) break;
    if (b[j] == a[i]) {
      out[k++] = a[i];
      ++j;
    }
  }
  return k;
}

size_t Intersect(const uint64_t* a, size_t na, const uint64_t* b, size_t nb,
                 uint64_t* out) {
  if (na > nb) return Intersect(b, nb, a, na, out);
  if (na == 0) return 0;
  if (nb / na >= kGallopRatio) return IntersectGalloping(a, na, b, nb, out);
  return IntersectScalar(a, na, b, nb, out);
}

size_t IntersectCount(const uint64_t* a, size_t na, const uint64_t* b,
                      size_t nb) {
  if (na > nb) return IntersectCount(b, nb, a, na);
  if (na == 0) return 0;
  if (nb / na >= kGallopRatio) {
    size_t j = 0, count = 0;
    for (size_t i = 0; i < na; ++i) {
      j = GallopLowerBound(b, nb, j, a[i]);
      if (j == nb) break;
      if (b[j] == a[i]) {
        ++count;
        ++j;
      }
    }
    return count;
  }
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    uint64_t va = a[i];
    uint64_t vb = b[j];
    count += static_cast<size_t>(va == vb);
    i += static_cast<size_t>(va <= vb);
    j += static_cast<size_t>(vb <= va);
  }
  return count;
}

size_t DifferenceSorted(const uint64_t* a, size_t na, const uint64_t* b,
                        size_t nb, uint64_t* out) {
  // Keep a[i] unless it appears in b. Gallop through b when it is much
  // longer (the expansion case: one friend list vs the accumulated seen
  // set); plain merge otherwise.
  size_t k = 0;
  if (na != 0 && nb / (na + 1) >= kGallopRatio) {
    size_t j = 0;
    for (size_t i = 0; i < na; ++i) {
      j = GallopLowerBound(b, nb, j, a[i]);
      if (j == nb || b[j] != a[i]) out[k++] = a[i];
    }
    return k;
  }
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    uint64_t va = a[i];
    uint64_t vb = b[j];
    out[k] = va;
    k += static_cast<size_t>(va < vb);
    i += static_cast<size_t>(va <= vb);
    j += static_cast<size_t>(vb <= va);
  }
  while (i < na) out[k++] = a[i++];
  return k;
}

}  // namespace snb::exec

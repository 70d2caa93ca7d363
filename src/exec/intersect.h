// Sorted-set kernels over u64 id arrays: intersection, difference, count.
//
// Adjacency lists that the store keeps sorted and duplicate-free (friend
// lists sort by neighbour id) support ordered-set algebra: mutual-friend
// counting is intersection. No query plan calls these kernels since the
// two-hop expansion moved to person bitmaps (exec/dense_id_set.h);
// bench_micro_intersect and the benchmark's exec ledger measure them.
// Three interchangeable intersection kernels cover the shapes that occur:
//
//   * IntersectScalar — branch-free two-pointer merge. The loop body has
//     no data-dependent branches (comparisons feed index increments), so
//     it pipelines well and the compiler can if-convert it; best when the
//     lists are of comparable length.
//   * IntersectGalloping — exponential search of the longer list for each
//     element of the shorter one; O(na log(nb/na)), the right shape when
//     one list is much longer (a hub person probed against a small
//     circle).
//   * IntersectSimd — 4x4 block compare via AVX2 (all-pairs equality of
//     two 4-lane blocks, advance the block with the smaller maximum).
//     Compiled in a separate -mavx2 translation unit and selected by a
//     runtime CPUID check, so one binary runs everywhere; configure with
//     -DSNB_SIMD=OFF to drop the AVX2 unit entirely (the symbol then
//     falls back to the scalar merge).
//
// Intersect() picks per call: galloping past a 16x length ratio, SIMD when
// available below it, scalar otherwise. All kernels require strictly
// ascending (hence duplicate-free) inputs and produce identical, strictly
// ascending output — the microbench (bench_micro_intersect) cross-checks
// the three against each other and tests/exec_intersect_test.cc against
// std::set_intersection.
#ifndef SNB_EXEC_INTERSECT_H_
#define SNB_EXEC_INTERSECT_H_

#include <cstddef>
#include <cstdint>

namespace snb::exec {

/// True when the AVX2 kernel is compiled in AND the CPU reports AVX2.
bool SimdAvailable();

// Every kernel: `a` (na elements) and `b` (nb elements) strictly
// ascending; `out` must have room for min(na, nb) elements. Returns the
// number of common elements written (ascending).

size_t IntersectScalar(const uint64_t* a, size_t na, const uint64_t* b,
                       size_t nb, uint64_t* out);

size_t IntersectGalloping(const uint64_t* a, size_t na, const uint64_t* b,
                          size_t nb, uint64_t* out);

/// AVX2 block kernel; identical to IntersectScalar when SimdAvailable()
/// is false.
size_t IntersectSimd(const uint64_t* a, size_t na, const uint64_t* b,
                     size_t nb, uint64_t* out);

/// Adaptive entry point: galloping when the length ratio exceeds
/// kGallopRatio, otherwise SIMD when available, otherwise scalar.
size_t Intersect(const uint64_t* a, size_t na, const uint64_t* b, size_t nb,
                 uint64_t* out);

/// |a ∩ b| without materializing (mutual-friend counting).
size_t IntersectCount(const uint64_t* a, size_t na, const uint64_t* b,
                      size_t nb);

/// a \ b into `out` (room for na elements); returns elements written,
/// ascending.
size_t DifferenceSorted(const uint64_t* a, size_t na, const uint64_t* b,
                        size_t nb, uint64_t* out);

/// Length ratio beyond which Intersect() switches to galloping.
inline constexpr size_t kGallopRatio = 16;

}  // namespace snb::exec

#endif  // SNB_EXEC_INTERSECT_H_

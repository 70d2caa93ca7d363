// Sorted-set kernels over u64 id arrays: intersection, difference, count.
//
// Adjacency lists that the store keeps sorted and duplicate-free (friend
// lists sort by neighbour id) support ordered-set algebra: mutual-friend
// counting is intersection. No query plan calls these kernels since the
// two-hop expansion moved to person bitmaps (exec/dense_id_set.h);
// bench_micro_intersect and the benchmark's exec ledger measure them.
// Two interchangeable intersection kernels cover the shapes that occur:
//
//   * IntersectScalar — branch-free two-pointer merge. The loop body has
//     no data-dependent branches (comparisons feed index increments), so
//     it pipelines well and the compiler can if-convert it; best when the
//     lists are of comparable length.
//   * IntersectGalloping — exponential search of the longer list for each
//     element of the shorter one; O(na log(nb/na)), the right shape when
//     one list is much longer (a hub person probed against a small
//     circle).
//
// Intersect() picks per call: galloping past a 16x length ratio, the
// scalar merge below it. All kernels require strictly ascending (hence
// duplicate-free) inputs and produce identical, strictly ascending output
// — the microbench (bench_micro_intersect) cross-checks the two against
// each other and tests/exec_intersect_test.cc against
// std::set_intersection.
#ifndef SNB_EXEC_INTERSECT_H_
#define SNB_EXEC_INTERSECT_H_

#include <cstddef>
#include <cstdint>

namespace snb::exec {

// Every kernel: `a` (na elements) and `b` (nb elements) strictly
// ascending; `out` must have room for min(na, nb) elements. Returns the
// number of common elements written (ascending).

size_t IntersectScalar(const uint64_t* a, size_t na, const uint64_t* b,
                       size_t nb, uint64_t* out);

size_t IntersectGalloping(const uint64_t* a, size_t na, const uint64_t* b,
                          size_t nb, uint64_t* out);

/// Adaptive entry point: galloping when the length ratio exceeds
/// kGallopRatio, otherwise the scalar merge.
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

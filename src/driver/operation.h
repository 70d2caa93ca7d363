// Workload operations: the unified unit the driver schedules.
#ifndef SNB_DRIVER_OPERATION_H_
#define SNB_DRIVER_OPERATION_H_

#include <cstdint>

#include "schema/ids.h"
#include "util/datetime.h"

namespace snb::driver {

/// What kind of work an operation is.
enum class OperationType : uint8_t {
  /// Complex read-only query (query_id 1..14, Table 6).
  kComplexRead,
  /// Simple read-only query (query_id 1..7, Table 7); normally spawned by
  /// the short-read random walk rather than scheduled directly.
  kShortRead,
  /// Transactional update (update_index into the pre-generated stream).
  kUpdate,
};

/// One scheduled operation. Reads carry their (curated) parameters inline;
/// updates reference the pre-generated update stream by index.
struct Operation {
  OperationType type = OperationType::kUpdate;
  /// 1..14 for complex reads, 1..7 for short reads.
  uint8_t query_id = 0;
  /// Index into the dataset's update stream (updates only).
  uint32_t update_index = 0;
  /// datagen::UpdateKind of the referenced update (updates only; 0 when
  /// unknown). Lets the driver attribute updates to their obs::OpType
  /// without dereferencing the stream.
  uint8_t update_kind = 0;

  /// Simulation time at which the operation is scheduled (T_DUE).
  util::TimestampMs due_time = 0;
  /// Latest dependency timestamp (T_DEP); 0 when independent.
  util::TimestampMs dependency_time = 0;
  /// What the sequential-forum driver waits on T_GC for: T_DEP restricted
  /// to person-graph dependencies (see UpdateOperation), or the full T_DEP
  /// in a TrackEveryUpdate stream.
  util::TimestampMs person_dependency_time = 0;
  /// Forum-tree partition key, or kInvalidId for person-graph ops / reads.
  schema::ForumId forum_partition = schema::kInvalidId;
  /// True when other operations may depend on this one (tracked in IT/CT).
  bool is_dependency = false;

  // Read parameters.
  schema::PersonId person_param = schema::kInvalidId;
  schema::PersonId person_param2 = schema::kInvalidId;
  uint64_t aux0 = 0;
  uint64_t aux1 = 0;
};

}  // namespace snb::driver

#endif  // SNB_DRIVER_OPERATION_H_

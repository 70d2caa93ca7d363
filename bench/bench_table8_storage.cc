// Table 8 reproduction: size of the largest storage structures after bulk
// load. The paper reports Virtuoso's three largest tables (post, likes,
// forum_person) and their largest indices; we report the equivalent
// breakdown of snb::store.
#include <cstdio>

#include "bench/bench_util.h"

namespace snb::bench {
namespace {

void Run() {
  PrintHeader("Table 8 — largest storage structures after bulk load");
  std::unique_ptr<BenchWorld> world = MakeWorld(kLargeSf, false);
  store::StorageBreakdown b = world->store.ComputeStorageBreakdown();

  auto mb = [](uint64_t bytes) { return bytes / (1024.0 * 1024.0); };
  std::printf("  %-34s %12s\n", "Structure", "Size (MB)");
  std::printf("  %-34s %12.2f\n", "message table (post/comment/photo)",
              mb(b.message_bytes));
  std::printf("  %-34s %12.2f\n", "  of which content",
              mb(b.message_content_bytes));
  std::printf("  %-34s %12.2f\n", "likes edges (both directions)",
              mb(b.likes_bytes));
  std::printf("  %-34s %12.2f\n", "forum_person memberships",
              mb(b.membership_bytes));
  std::printf("  %-34s %12.2f\n", "knows edges", mb(b.friends_bytes));
  std::printf("  %-34s %12.2f\n", "person attributes + name index",
              mb(b.person_bytes));
  std::printf("  %-34s %12.2f\n", "forum attributes", mb(b.forum_bytes));
  std::printf("  %-34s %12.2f\n", "TOTAL", mb(b.Total()));
  std::printf("\n  CSV-GB equivalent of this dataset: %.4f GB\n",
              world->dataset.stats.csv_bytes / 1e9);
  std::printf(
      "\n  Paper (Virtuoso,SF300): post 76.8GB (content index 41.7GB),\n"
      "  likes 23.6GB, forum_person 9.3GB — of 138GB total.\n"
      "  Shape to check: the message table dominates (content is the bulk\n"
      "  of it), followed by likes, then memberships.\n\n");
}

}  // namespace
}  // namespace snb::bench

int main() {
  snb::bench::Run();
  return 0;
}

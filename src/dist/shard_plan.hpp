// Shard planning for the multi-process driver.
//
// The 2^|S| slicing subtasks are split into one contiguous window per
// process — the same shard shape the SliceScheduler seeds per worker and
// the paper assigns per node — and each window is further decomposed into
// *tournament-aligned* blocks: maximal ranges [idx·2^level, (idx+1)·2^level)
// that coincide with complete subtrees of the global ReductionTree over
// [0, total). A worker reduces each aligned block locally (bitwise equal to
// the corresponding subtree of a single-process run, because the tournament
// structure depends only on relative positions) and ships one partial per
// block; the coordinator then finishes the tournament from those partials.
// This is what makes the cross-process sum bitwise identical to the
// single-process run for ANY process count, even when shard boundaries do
// not align with subtree boundaries.
#pragma once

#include <cstdint>
#include <vector>

namespace ltns::dist {

// One process's contiguous task window.
struct Shard {
  uint64_t first = 0;
  uint64_t count = 0;
};

// Partitions [0, total) into `processes` contiguous windows with the
// balanced boundaries total·p/P, so a 1-process plan is the whole range. Processes beyond
// `total` receive empty shards.
std::vector<Shard> make_shard_plan(uint64_t total, int processes);

// A complete subtree of the global tournament: tasks
// [index << level, (index + 1) << level).
struct AlignedBlock {
  int level = 0;
  uint64_t index = 0;

  uint64_t first() const { return index << level; }
  uint64_t count() const { return uint64_t(1) << level; }
};

// Canonical decomposition of [first, first + count) into maximal aligned
// blocks, in ascending task order. O(log count) blocks (at most 2·64).
std::vector<AlignedBlock> aligned_blocks(uint64_t first, uint64_t count);

}  // namespace ltns::dist

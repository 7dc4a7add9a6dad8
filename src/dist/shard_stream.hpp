// The shard-side and coordinator-side halves of the block-partial protocol,
// shared by BOTH transports (exec::run_sharded's fork/socketpair driver and
// the TCP coordinator/worker service). Keeping this logic in one place is
// load-bearing: the bitwise-identity guarantee requires every transport to
// decompose windows, reduce blocks, and frame results the exact same way.
#pragma once

#include <cstdint>
#include <string>

#include "dist/shard_merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/wire.hpp"
#include "exec/slice_runner.hpp"

namespace ltns::dist {

struct ShardStreamOptions {
  exec::SliceExecutor executor = exec::SliceExecutor::kWorkStealing;
  uint64_t grain = 1;
  ThreadPool* pool = nullptr;                    // required
  runtime::SliceScheduler* scheduler = nullptr;  // required
  const exec::FusedPlan* fused = nullptr;
  exec::Precision precision = exec::Precision::kFp32;  // GEMM operand precision
};

// Reduces one tournament-aligned block with run_sliced and folds the run's
// counters into `tel`. Shared by the static window streamer and the
// elastic lease loop — the bitwise-identity guarantee requires every path
// to compute a block partial the exact same way.
exec::Tensor reduce_block(const AlignedBlock& block, const tn::ContractionTree& tree,
                          const exec::LeafProvider& leaves, const core::SliceSet& slices,
                          const ShardStreamOptions& opt, ShardTelemetry* tel);

// Worker side: reduces every tournament-aligned block of
// [first, first + count) with run_sliced and streams one kBlock frame per
// block, then one kTelemetry record and kDone, to `fd`. Throws
// std::runtime_error on any failure (the caller reports it as kError).
void stream_shard_window(int fd, int shard_id, uint64_t first, uint64_t count,
                         const tn::ContractionTree& tree, const exec::LeafProvider& leaves,
                         const core::SliceSet& slices, const ShardStreamOptions& opt);

// Coordinator side: drains one shard's frame stream, feeding block partials
// into `merger` and the telemetry record into `telemetry`. Returns the
// empty string on a clean kDone, a failure description otherwise (worker
// kError text, EOF before kDone, protocol violations). Never throws.
std::string drain_shard_stream(int fd, ShardMerger* merger, ShardTelemetry* telemetry);

}  // namespace ltns::dist

// Multi-process shard runner: run_sharded(), alongside run_sliced().
//
// Splits the 2^|S| slicing subtasks into one contiguous window per process
// (dist::make_shard_plan), forks one worker process per shard over a
// socketpair, and merges the partial tensors the workers ship back in fixed
// tournament order (dist::ShardMerger) — the process-level layer of the
// paper's headline runs, where nodes each take a task range and the program
// ends in a single allReduce.
//
// Bitwise stability: each worker decomposes its window into tournament-
// aligned blocks and reduces every block with the same ReductionTree a
// single-process run uses, so each shipped partial is bit-identical to the
// corresponding subtree node of the single-process tournament; the
// coordinator finishes the remaining levels under the same merge rules.
// The accumulated tensor is therefore bitwise identical to run_sliced()
// over the full range for ANY process count — asserted by tests/test_dist
// and the CI `distributed` job.
//
// Telemetry: each worker reports a dist::ShardTelemetry (executor snapshot,
// memory traffic, exec stats, wall time); the coordinator keeps the
// per-shard records and aggregates them into the SliceRunResult-shaped
// fields of ShardRunResult.
#pragma once

#include <string>
#include <vector>

#include "dist/lease.hpp"
#include "dist/wire.hpp"
#include "exec/slice_runner.hpp"

namespace ltns::exec {

struct ShardRunOptions {
  int processes = 2;
  // Scheduler/pool width inside each worker process; 0 divides the host's
  // hardware concurrency evenly across processes (at least 1).
  int workers_per_process = 0;
  SliceExecutor executor = SliceExecutor::kWorkStealing;
  uint64_t grain = 1;          // tasks per deque pop under work stealing
  const FusedPlan* fused = nullptr;
  // Elastic mode: instead of one fixed window per process, workers lease
  // bounded task ranges from a coordinator-owned queue (dist/elastic.hpp);
  // a straggler's untouched ranges are stolen by idle peers and a dead
  // worker's leases are revoked and re-issued, so the run survives losing
  // processes — and stays bitwise identical to a single-process run. The
  // static one-shot driver remains the default.
  bool elastic = false;
  uint64_t lease_size = 0;            // tasks per lease; 0 = auto
  double heartbeat_seconds = 0.2;     // worker liveness period
  double stall_timeout_seconds = 30;  // silent-with-leases -> revoke + requeue
  // Durable run ledger (dist/checkpoint.hpp; elastic mode only): journal
  // every completed lease range (with its block payloads) to
  // `<spill_dir>/ledger.journal`, fsync'd every `spill_fsync_seconds`
  // (<= 0 = after every record). With `resume`, an existing journal is
  // replayed first: recorded ranges are fed straight to the merger and
  // only unfinished ranges are re-offered to workers — the accumulated
  // tensor stays bitwise identical to an uninterrupted run. `spill_run_id`
  // fingerprints the job; a journal whose fingerprint disagrees is
  // refused (resuming a different run would merge foreign tensors).
  std::string spill_dir;
  bool resume = false;
  double spill_fsync_seconds = 0;
  std::string spill_run_id;
  // GEMM operand precision every worker runs at (the kernel tier is each
  // worker's own cpu_probe; every tier gives the same bits at a precision).
  Precision precision = Precision::kFp32;
  // Periodic live-metrics snapshot (elastic mode only): the coordinator
  // writes `metrics_out` (ltns.metrics.v1 JSON + .prom twin) every
  // `metrics_interval_seconds` while the run is live, and once more at the
  // end. <= 0 disables the periodic writes.
  std::string metrics_out;
  double metrics_interval_seconds = 0;
  // Test hook: the worker for this shard index exits without reporting, so
  // the failure path (static: clean error; elastic: requeue + completion)
  // can be exercised. -1 = off. The elastic chaos hooks (mid-run SIGKILL,
  // per-task straggler sleep) come from the LTNS_CHAOS_* env instead — see
  // dist::chaos_from_env.
  int fault_shard = -1;
};

struct ShardRunResult {
  // Merged over all shards in tournament order; empty when a shard failed
  // (completed == false, `error` says which and why).
  Tensor accumulated;
  bool completed = false;
  std::string error;
  uint64_t tasks_run = 0;
  ExecStats stats;                           // merged over shards
  double wall_seconds = 0;                   // coordinator wall time
  runtime::ExecutorSnapshot executor_stats;  // aggregated over shards
  runtime::MemoryStats memory;
  uint64_t reduce_merges = 0;                // worker + coordinator merges
  std::vector<dist::ShardTelemetry> shards;  // one record per process
  dist::RebalanceStats rebalance;            // elastic-mode lease telemetry
};

ShardRunResult run_sharded(const tn::ContractionTree& tree, const LeafProvider& leaves,
                           const core::SliceSet& slices, const ShardRunOptions& opt = {});

}  // namespace ltns::exec

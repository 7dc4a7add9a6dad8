#include "exec/shard_runner.hpp"

#include <csignal>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/checkpoint.hpp"
#include "dist/elastic.hpp"
#include "dist/shard_merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_stream.hpp"
#include "obs/trace.hpp"
#include "runtime/slice_scheduler.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

namespace {

int workers_for(const ShardRunOptions& opt) {
  if (opt.workers_per_process > 0) return opt.workers_per_process;
  const int hw = int(std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, hw / std::max(1, opt.processes));
}

// Worker process body: stream the shard window's block partials over the
// shared protocol, then exit. Never returns; exit code 0 = clean, 1 =
// reported error frame.
[[noreturn]] void worker_main(int fd, int shard_id, dist::Shard shard,
                              const tn::ContractionTree& tree, const LeafProvider& leaves,
                              const core::SliceSet& slices, const ShardRunOptions& opt) {
  // A dead coordinator must surface as a write error, not SIGPIPE death.
  std::signal(SIGPIPE, SIG_IGN);
  // The fork inherited the parent's armed tracer, ring buffers and all:
  // drop the parent's events and re-home this process under its own rank so
  // the merged timeline renders one lane per shard.
  if (obs::Tracer::instance().enabled()) obs::Tracer::instance().reset_after_fork(shard_id);
  try {
    // A fresh scheduler: threads do not survive fork, so the parent's
    // (global) scheduler is an unusable husk in this process.
    runtime::SliceScheduler sched(workers_for(opt));
    dist::ShardStreamOptions so;
    so.grain = opt.grain;
    so.scheduler = &sched;
    so.fused = opt.fused;
    so.precision = opt.precision;
    if (opt.elastic) {
      dist::ElasticWorkerOptions eo;
      eo.stream = so;
      eo.worker_id = shard_id;
      eo.heartbeat_seconds = opt.heartbeat_seconds;
      dist::serve_elastic_shard(fd, tree, leaves, slices, eo);
    } else {
      dist::stream_shard_window(fd, shard_id, shard.first, shard.count, tree, leaves, slices,
                                so);
    }
    ::close(fd);
    std::_Exit(0);
  } catch (const std::exception& e) {
    try {
      dist::ByteWriter w;
      w.put_string(e.what());
      dist::write_frame(fd, dist::FrameType::kError, w);
    } catch (...) {
    }
    std::_Exit(1);
  }
}

struct Child {
  pid_t pid = -1;
  int fd = -1;
};

void append_error(std::string* error, const std::string& msg) {
  if (!error->empty()) *error += "; ";
  *error += msg;
}

}  // namespace

ShardRunResult run_sharded(const tn::ContractionTree& tree, const LeafProvider& leaves,
                           const core::SliceSet& slices, const ShardRunOptions& opt) {
  ShardRunResult res;
  const auto sliced = slices.to_vector();
  if (sliced.size() >= 57) {
    res.error = "too many sliced edges";
    return res;
  }
  const uint64_t total = uint64_t(1) << sliced.size();
  const int processes = std::max(1, opt.processes);
  const auto plan = dist::make_shard_plan(total, processes);

  Timer wall;
  std::vector<Child> kids(size_t(processes), Child{});
  for (int p = 0; p < processes; ++p) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      append_error(&res.error, "socketpair failed");
      break;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      append_error(&res.error, "fork failed");
      break;
    }
    if (pid == 0) {
      // Child: drop every inherited coordinator-side descriptor.
      for (const auto& k : kids)
        if (k.fd >= 0) ::close(k.fd);
      ::close(sv[0]);
      if (opt.fault_shard == p) std::_Exit(17);  // test hook: die unreported
      worker_main(sv[1], p, plan[size_t(p)], tree, leaves, slices, opt);
    }
    ::close(sv[1]);
    kids[size_t(p)] = {pid, sv[0]};
  }

  dist::ShardMerger merger(total);
  res.shards.assign(size_t(processes), {});
  for (int p = 0; p < processes; ++p) res.shards[size_t(p)].shard = p;
  if (opt.elastic) {
    // Elastic: one poll loop leases bounded ranges to whichever worker is
    // idle, revokes and requeues on death or stall, and keeps the
    // tournament bookkeeping range-granular — losing a worker costs a
    // lease of recomputation, not the run.
    dist::ElasticOptions eo;
    eo.lease_size = opt.lease_size;
    eo.heartbeat_seconds = opt.heartbeat_seconds;
    eo.stall_timeout_seconds = opt.stall_timeout_seconds;
    // Fork mode has no listener, so nobody can rejoin — but a fleet where
    // every worker is stalled (wedged, not dead) must still end in an
    // error rather than a hang, and this timeout is what bounds that wait.
    eo.accept_timeout_seconds =
        std::max(60, int(opt.stall_timeout_seconds * 2));
    dist::ElasticCoordinator coord(total, processes, eo);
    if (!opt.metrics_out.empty() && opt.metrics_interval_seconds > 0)
      coord.set_metrics_snapshot(opt.metrics_out, opt.metrics_interval_seconds);
    // Durable run ledger: replay an existing journal into the fresh
    // ledger + merger (resume), then open the write-ahead journal the
    // coordinator spills every completed range into.
    std::unique_ptr<dist::CheckpointWriter> journal;
    bool spill_ok = true;
    if (!opt.spill_dir.empty()) {
      try {
        dist::CheckpointMeta meta;
        meta.total = total;
        meta.home_workers = processes;
        meta.lease_size = coord.ledger().lease_size();
        meta.run_id = opt.spill_run_id;
        journal = dist::open_or_resume_journal(opt.spill_dir, meta, opt.resume,
                                               opt.spill_fsync_seconds, &coord.mutable_ledger(),
                                               &merger);
        coord.set_journal(journal.get());
      } catch (const std::exception& e) {
        // A coordinator that cannot spill must fail the run rather than
        // silently drop its durability guarantee.
        append_error(&res.error, e.what());
        spill_ok = false;
      }
    }
    if (spill_ok) {
      for (int p = 0; p < processes; ++p) {
        if (kids[size_t(p)].fd >= 0) {
          coord.add_worker(kids[size_t(p)].fd, p);
          kids[size_t(p)].fd = -1;  // the coordinator owns it now
        }
      }
      auto err = coord.run(&merger);
      if (!err.empty()) append_error(&res.error, err);
    } else {
      // Closing the sockets EOFs the already-forked workers so the
      // waitpid loop below reaps them instead of hanging.
      for (auto& kid : kids) {
        if (kid.fd >= 0) ::close(kid.fd);
        kid.fd = -1;
      }
    }
    for (const auto& t : coord.telemetry())
      if (t.shard >= 0 && t.shard < processes) res.shards[size_t(t.shard)] = t;
    res.rebalance = coord.ledger().stats();
    if (journal && res.error.empty()) {
      // Clean finish: close the writer, then shrink the journal to its
      // single-span form — a crash-loop supervisor's unconditional --resume
      // replays one record instead of re-parsing every lease ever spilled.
      coord.set_journal(nullptr);
      journal.reset();
      try {
        dist::compact_checkpoint(opt.spill_dir);
      } catch (const std::exception&) {
        // Compaction is an optimization; the full journal still resumes.
      }
    }
  } else {
    // Static: drain every worker's fixed-window frame stream; a worker
    // that dies mid-run closes its socket, so the read loop ends in EOF
    // and reports instead of hanging.
    for (int p = 0; p < processes; ++p) {
      Child& kid = kids[size_t(p)];
      if (kid.fd < 0) continue;
      auto err = dist::drain_shard_stream(kid.fd, &merger, &res.shards[size_t(p)]);
      if (!err.empty()) append_error(&res.error, "shard " + std::to_string(p) + ": " + err);
      ::close(kid.fd);
      kid.fd = -1;
    }
  }

  for (int p = 0; p < processes; ++p) {
    if (kids[size_t(p)].pid < 0) continue;
    int st = 0;
    ::waitpid(kids[size_t(p)].pid, &st, 0);
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
      // An elastic run absorbs worker deaths by design (the requeue is the
      // feature under test in the chaos job); only report an abnormal exit
      // when it actually cost us the run, and only when the worker didn't
      // already explain itself.
      if (res.error.empty() && !opt.elastic)
        append_error(&res.error, "shard " + std::to_string(p) + " exited abnormally (status " +
                                     std::to_string(st) + ")");
    }
  }

  auto agg = dist::aggregate_telemetry(res.shards);
  res.tasks_run += agg.tasks_run;
  res.reduce_merges += agg.reduce_merges;
  res.stats.merge(agg.stats);
  res.memory.merge(agg.memory);
  res.executor_stats.merge(agg.executor);
  // Surface the lease telemetry through the aggregated snapshot, so the
  // rebalance counters ride every existing telemetry path (API + CLI).
  res.executor_stats.ranges_stolen += res.rebalance.ranges_stolen;
  res.executor_stats.ranges_reissued += res.rebalance.ranges_reissued;
  res.executor_stats.straggler_wait_seconds += res.rebalance.straggler_wait_seconds;
  res.wall_seconds = wall.seconds();
  if (!res.error.empty()) return res;
  if (!merger.complete()) {
    res.error = "reduction incomplete despite clean workers";
    return res;
  }
  res.reduce_merges += merger.merges();
  res.accumulated = merger.take_root();
  res.completed = true;
  return res;
}

}  // namespace ltns::exec

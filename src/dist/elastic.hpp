// Elastic shard scheduling: the lease-based coordinator/worker halves.
//
// Where the static driver (shard_stream.hpp) fixes one window per process
// up front, the elastic protocol runs a long-lived scheduling loop:
//
//   worker                         coordinator
//   ------                         -----------
//   kLeaseRequest ->               LeaseLedger::acquire (own home window,
//                  <- kLease        then steal from the most-loaded home)
//   kLeaseBlock* ->                buffered under the lease id
//   kRangeDone ->                  buffered blocks fed to the ShardMerger
//   kLeaseRequest -> ...           (repeat until the ledger drains)
//                  <- kDrain
//   kTelemetry, kDone ->           final per-worker telemetry
//
// A background thread on the worker writes kHeartbeat frames while the
// compute thread is busy, so the coordinator can tell "slow" from "dead":
// a silent worker past the stall timeout (or an EOF) has its leases
// revoked and requeued for idle peers, and any frame it later sends for a
// revoked lease is dropped — never double-merged. Because every range is
// reduced as tournament-aligned blocks and merged once in fixed tournament
// order, the accumulated tensor is bitwise identical to a single-process
// run regardless of which worker computed which range or how many times a
// range was re-issued.
//
// The coordinator's poll loop also accepts mid-run connections on an
// optional listen fd: new workers join the fleet (elastic width), and a
// kStatusRequest probe gets a JSON snapshot of live lease/heartbeat state
// (`ltns_cli coordinate --status`) without disturbing the run.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dist/lease.hpp"
#include "dist/shard_merge.hpp"
#include "dist/shard_stream.hpp"
#include "dist/wire.hpp"
#include "util/timer.hpp"

namespace ltns::dist {

struct ElasticOptions {
  uint64_t lease_size = 0;         // tasks per lease; 0 = auto (see LeaseLedger)
  // Worker kHeartbeat period; <= 0 disables heartbeats AND stall
  // revocation with them (no way to tell slow from dead; worker death
  // still surfaces as EOF).
  double heartbeat_seconds = 0.2;
  // Quarantine a worker silent this long: revoke + requeue its leases.
  // 0 disables; values under 4 heartbeat periods are clamped up so a
  // healthy-but-busy worker can never be revoked into a livelock.
  double stall_timeout_seconds = 30;
  int accept_timeout_seconds = 300;  // max wait with zero live workers
};

class ElasticCoordinator {
 public:
  ElasticCoordinator(uint64_t total, int home_workers, const ElasticOptions& opt);

  // Registers a pre-connected worker (the fork driver's socketpairs); such
  // peers skip the hello/job handshake and start with kLeaseRequest.
  void add_worker(int fd, int worker_id);

  // Listener mode (TCP service): accept connections mid-run. A connecting
  // worker says kHello and `send_job` must answer with its kJob frame
  // (throwing on failure rejects the peer); status probes are answered
  // internally. Worker ids continue from the highest registered id.
  using JobSender = std::function<void(int fd, int worker_id)>;
  void set_listener(int listen_fd, JobSender send_job);

  // Durable run ledger (dist/checkpoint.hpp): every completed range is
  // offered to `journal` BEFORE it reaches the merger, and the journal's
  // spill health rides the --status JSON. Pair with mutable_ledger() +
  // replay_checkpoint to resume: replayed ranges are already retired, so
  // the loop re-offers only unfinished work. Caller keeps ownership.
  void set_journal(RangeJournal* journal) { journal_ = journal; }

  // Periodic metrics snapshot for scrapers (`--metrics-interval`): every
  // `interval_seconds` of run() the live coordinator state (per-worker
  // pulses, rebalance counters, journal lag) is written to `path` as
  // ltns.metrics.v1 JSON plus the Prometheus twin (tmp + rename, so a
  // scraper never reads a torn file). interval <= 0 disables.
  void set_metrics_snapshot(std::string path, double interval_seconds);

  // Runs the event loop until every task is merged (returns "") or no path
  // to completion remains (returns why). Owns the registered/accepted
  // worker fds from here on — they are closed before returning; the listen
  // fd stays open (its lifetime belongs to the caller).
  std::string run(ShardMerger* merger);

  const LeaseLedger& ledger() const { return ledger_; }
  // Pre-run checkpoint replay seeds the ledger through this (and ONLY
  // this) mutable view; once run() starts, the loop owns the ledger.
  LeaseLedger& mutable_ledger() { return ledger_; }
  // One record per worker that reported final telemetry, in worker order.
  const std::vector<ShardTelemetry>& telemetry() const { return telemetry_; }
  std::string status_json() const;

 private:
  struct Peer {
    int fd = -1;
    int id = -1;          // -1 until the hello/job handshake finishes
    bool draining = false;  // kDrain sent, waiting for kTelemetry/kDone
    bool finished = false;  // kDone received (or peer gone)
    bool stalled = false;   // quarantined by the stall timeout
    std::string isa;        // kernel ISA tier advertised in heartbeats
    uint64_t leases_completed = 0;
    WorkerPulse pulse;      // latest heartbeat metrics sample (v4+ peers)
    bool has_pulse = false;
    Timer last_seen;
    Timer parked;       // set when a lease request is parked on an empty queue
    Timer drain_since;  // set when kDrain goes out; bounds the goodbye wait
    bool is_parked = false;
  };

  void handle_frame(Peer& p, const Frame& f, ShardMerger* merger);
  double goodbye_timeout() const;
  void drop_peer(Peer& p, ShardMerger* merger);
  void serve_parked(ShardMerger* merger);
  void send_lease_or_park(Peer& p);
  void unpark(Peer& p);  // folds the parked wait into straggler telemetry
  void accept_peer();
  void maybe_write_metrics(bool force = false);

  uint64_t total_ = 0;
  ElasticOptions opt_;
  LeaseLedger ledger_;
  std::vector<Peer> peers_;
  std::vector<ShardTelemetry> telemetry_;
  int listen_fd_ = -1;
  JobSender send_job_;
  RangeJournal* journal_ = nullptr;
  int next_worker_id_ = 0;
  std::string error_;
  std::string metrics_path_;
  double metrics_interval_ = 0;
  Timer metrics_last_;
};

struct ElasticWorkerOptions {
  ShardStreamOptions stream;
  int worker_id = 0;
  double heartbeat_seconds = 0.2;
};

// Worker half: lease/compute/report loop over `fd` until kDrain (clean
// return) or a dead coordinator / protocol violation (throws). Reads the
// chaos-injection env hooks (LTNS_CHAOS_*, see chaos_from_env) used by the
// fault tests and the chaos CI job.
void serve_elastic_shard(int fd, const tn::ContractionTree& tree,
                         const exec::LeafProvider& leaves, const core::SliceSet& slices,
                         const ElasticWorkerOptions& opt);

// Chaos hooks for the fault tests and the chaos-distributed CI job; all
// no-ops unless the env selects THIS worker id (`any` selects every id —
// only sane when the env is scoped to a single worker process):
//   LTNS_CHAOS_KILL_SHARD=<id|any>  worker to SIGKILL itself mid-run
//   LTNS_CHAOS_KILL_AFTER_RANGES=<n>  ...on receiving its (n+1)-th lease,
//                                     while holding it (default 1), so the
//                                     death always leaves work to requeue
//   LTNS_CHAOS_SLEEP_SHARD=<id>     worker to run as an artificial straggler
//   LTNS_CHAOS_SLEEP_MS=<ms>        ...sleeping ms per task (default 20)
struct ChaosHooks {
  int kill_after_ranges = -1;  // -1 = off
  double sleep_ms_per_task = 0;
};
ChaosHooks chaos_from_env(int worker_id);

}  // namespace ltns::dist

// Multi-tenant simulation service: one persistent `ltns_cli serve` daemon
// multiplexing a NAMED JOB QUEUE over a single elastic worker fleet.
//
// Where `ltns_cli coordinate` runs exactly one amplitude job and exits, the
// JobServer accepts kSubmit frames (circuit + plan knobs + tenant identity),
// queues them, and drives every admitted job through its own LeaseLedger +
// ShardMerger over the SAME long-lived workers — leases from different jobs
// interleave freely on one fleet. Scheduling is two-level:
//
//   1. FairShare picks the next TENANT by stride scheduling: each tenant
//      accrues virtual time at rate work/weight, the runnable tenant with
//      the least virtual time dispatches next. Zero-weight tenants are
//      background: they only run when no weighted tenant has work.
//   2. Within the tenant, jobs order by priority (desc) then id (asc).
//
// AdmissionControl bounds the queue (submits beyond max_queued are
// REJECTED, not buffered) and adapts the concurrent-job limit between
// min/max_running off the fleet's mean worker-utilization EMA — the same
// WorkerPulse samples PR 6's heartbeats already carry: a saturated fleet
// shrinks the limit toward min_running, an idle one grows it.
//
// Determinism: each job owns a private LeaseLedger over its own task range
// with a DISJOINT lease-id base (job id in the high 32 bits), so a lease id
// alone routes every worker frame to its job, and each job's tournament
// merges in the exact tree order a solo run uses — a job's amplitude is
// byte-identical to `ltns_cli amp` on the same spec no matter what else
// shares the fleet, or which workers die mid-run (revoked leases requeue
// per job, exactly like the one-shot elastic driver).
//
// Durability: with --state-dir, specs, terminal results and per-job spill
// journals live under <state_dir>/jobs/<id>/; a restarted server re-queues
// unfinished jobs and resumes their journals (PR 5 semantics, per job).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/options.hpp"
#include "dist/job.hpp"

namespace ltns::dist {

// Weighted fair share across tenants via stride scheduling. Standalone and
// deterministic so the scheduling policy is unit-testable without sockets.
class FairShare {
 public:
  // Declares (or re-weights) a tenant. Weight 0 = background-only.
  void set_weight(const std::string& tenant, uint32_t weight);

  // Picks from `runnable` the weighted tenant with the least virtual time
  // (ties break lexicographically, for determinism); zero-weight tenants
  // are chosen only when no weighted tenant is runnable. A tenant idle
  // since its last dispatch is clamped up to the scheduler clock first, so
  // sleeping never banks credit. Returns "" when `runnable` is empty.
  // Unknown names are treated as weight-1 tenants (first pick declares).
  std::string pick(const std::vector<std::string>& runnable);

  // Charges `tasks` units of dispatched work to `tenant`: its virtual time
  // advances by tasks/weight.
  void charge(const std::string& tenant, uint64_t tasks);

  double virtual_time(const std::string& tenant) const;

  struct TenantShare {
    std::string tenant;
    uint32_t weight = 1;
    double virtual_time = 0;
    uint64_t tasks_charged = 0;
  };
  std::vector<TenantShare> shares() const;

 private:
  struct State {
    uint32_t weight = 1;
    double vt = 0;
    uint64_t charged = 0;
  };
  State& ensure(const std::string& tenant);
  std::map<std::string, State> tenants_;
  double clock_ = 0;  // virtual time of the last dispatched tenant
};

struct AdmissionOptions {
  size_t max_queued = 64;  // kSubmit beyond this is rejected
  int min_running = 1;     // adaptive concurrent-job limit floor...
  int max_running = 4;     // ...and ceiling
  // Fleet mean utilization EMA watermarks: above high the limit steps
  // down, below low it steps up. In between the limit holds.
  double high_watermark = 0.85;
  double low_watermark = 0.5;
};

// Queue bound + adaptive concurrent-job limit. Standalone for unit tests.
class AdmissionControl {
 public:
  explicit AdmissionControl(AdmissionOptions opt);

  // Admission decision for one new submit given the current queue depth.
  bool admit(size_t queued) const { return queued < opt_.max_queued; }

  // Feeds the latest fleet-mean worker-utilization EMA; nudges the running
  // limit one step per call toward the watermark band.
  void observe_utilization(double mean_ema);

  int running_limit() const { return limit_; }
  const AdmissionOptions& options() const { return opt_; }

 private:
  AdmissionOptions opt_;
  int limit_;
};

struct ServerOptions {
  // "" = volatile server: queue and results live only in this process.
  std::string state_dir;
  // Notional home-window count for every job's lease ledger (the fleet may
  // be larger or smaller at any moment; extra workers steal).
  int home_workers = 2;
  uint64_t lease_size = 0;  // 0 = auto (~8 leases per home window)
  double heartbeat_seconds = 0.2;
  double stall_timeout_seconds = 30;
  double fsync_seconds = 0;  // per-job journal fsync cadence (0 = every record)
  // Execution defaults stamped into every job's kJob payload.
  int workers_per_process = 0;  // 0 = worker hardware decides
  uint32_t executor = 0;        // exec::SliceExecutor
  uint64_t grain = 1;
  std::string metrics_out;  // ltns_server_*/ltns_tenant_* snapshot target
  double metrics_interval_seconds = 0;
  AdmissionOptions admission;
  // Content-addressed plan & result cache. The server only engages it when
  // cache_dir is set: a memory-only cache behind a long-lived daemon would
  // silently serve results that vanish on restart while claiming the same
  // fingerprints — the CLI refuses that combination up front.
  cache::CacheOptions cache;
};

// The daemon behind `ltns_cli serve`. Single-threaded poll loop over one
// listening socket: fleet workers (kHello -> kWelcome handshake) and
// control clients (kSubmit/kJobStatus/kCancel/kFetchResult/kShutdown) share
// the port. serve() runs until a kShutdown frame arrives, finishes the
// running jobs, drains the fleet, and returns "" (or a fatal error).
class JobServer {
 public:
  JobServer(uint16_t port, ServerOptions opt);  // binds; throws on failure
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  uint16_t port() const { return port_; }
  std::string serve();

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  ServerOptions opt_;
};

// Fleet-worker protocol loop, entered by serve_worker() when the peer's
// first frame is kWelcome instead of kJob: request leases forever, plan
// each previously-unseen job id from its kJob frame, compute kJobLease
// ranges block-by-block, and exit on kDrain. `worker_id` and
// `heartbeat_seconds` come from the kWelcome payload. Returns a process
// exit code.
int serve_fleet_worker(int fd, int worker_id, double heartbeat_seconds);

}  // namespace ltns::dist

// TCP coordinator/worker service: the multi-host face of the shard driver.
//
// The fork-based exec::run_sharded() covers one host; this service runs the
// same protocol over TCP so shards can live on different nodes. The
// coordinator listens, hands each connecting worker a self-contained job
// (circuit text + plan options + its shard window), and finishes the
// tournament from the returned block partials — the merge order and wire
// format are shared with the local driver, so the accumulated amplitude is
// bitwise identical to a single-process run.
//
// Each worker re-plans from the circuit text with the job's options; the
// planner is deterministic, so every process derives the same contraction
// tree and slice set (the coordinator cross-checks |S| and rejects
// mismatches). Peers must run the same binary on the same architecture —
// the wire format ships raw IEEE bit patterns (see wire.hpp).
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "dist/lease.hpp"
#include "dist/wire.hpp"
#include "exec/slice_runner.hpp"

namespace ltns::dist {

struct ServiceOptions {
  double target_log2size = 16;  // planner slicing bound (must match CLI amp)
  exec::SliceExecutor executor = exec::SliceExecutor::kWorkStealing;
  uint64_t grain = 1;
  int workers_per_process = 0;  // scheduler width per worker; 0 = hardware
  // Fused (secondary-slicing) stem executor, as the Simulator defaults to —
  // keeping it on makes a `coordinate` amplitude bitwise comparable to an
  // `amp` run of the same circuit.
  bool fused = true;
  uint64_t ldm_elems = 32768;
  // Bound on waiting for workers to connect; a worker that dies before
  // connecting then yields an error instead of a hang. 0 = wait forever.
  int accept_timeout_seconds = 300;
  // Elastic mode (dist/elastic.hpp): workers lease bounded task ranges
  // instead of one fixed window; stragglers are stolen from, dead workers'
  // leases are requeued, new workers may join mid-run, and a
  // kStatusRequest probe (ltns_cli coordinate --status) gets live
  // lease/heartbeat state. The result stays bitwise identical to a
  // 1-process run either way.
  bool elastic = false;
  uint64_t lease_size = 0;            // tasks per lease; 0 = auto
  double heartbeat_seconds = 0.2;     // worker liveness period
  double stall_timeout_seconds = 30;  // silent-with-leases -> revoke + requeue
  // Durable run ledger (dist/checkpoint.hpp; elastic mode only): journal
  // completed ranges to `<spill_dir>/ledger.journal` and, with `resume`,
  // replay a previous coordinator's journal so a restarted coordinator
  // re-offers only unfinished ranges to (re)connecting workers — the
  // amplitude stays bitwise identical to an uninterrupted run. The journal
  // is fingerprinted with the job (circuit + bits + plan target); resuming
  // a different job is refused. `coordinate --status` reports the spill
  // health (journal size, last fsync age) while the run is live.
  std::string spill_dir;
  bool resume = false;
  double spill_fsync_seconds = 0;  // <= 0 = fsync after every record
  // GEMM operand precision every worker runs the job at. Each worker picks
  // its own ISA tier; every tier gives the same bits at one precision, so a
  // mixed fleet still produces the byte-exact amplitude.
  exec::Precision precision = exec::Precision::kFp32;
  // Observability (src/obs): with `trace`, the job asks every worker to arm
  // its event tracer and ship the recorded chunk back over kTrace at drain
  // time, so the coordinator's --trace-out timeline carries one lane per
  // remote process. `metrics_out`/`metrics_interval_seconds` plumb the
  // coordinator's periodic live-metrics snapshot (elastic mode only; see
  // ElasticCoordinator::set_metrics_snapshot).
  bool trace = false;
  std::string metrics_out;
  double metrics_interval_seconds = 0;
};

struct CoordinatorResult {
  std::complex<double> amplitude{0, 0};
  bool completed = false;
  std::string error;
  int num_slices = 0;
  uint64_t tasks_run = 0;
  double wall_seconds = 0;
  std::vector<ShardTelemetry> shards;  // one record per worker
  RebalanceStats rebalance;            // elastic-mode lease telemetry
};

class CoordinatorServer {
 public:
  // Binds and listens on `port` (0 picks an ephemeral port, readable via
  // port()); throws std::runtime_error on failure.
  explicit CoordinatorServer(uint16_t port);
  ~CoordinatorServer();
  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  uint16_t port() const { return port_; }

  // Accepts `num_workers` connections, shards [0, 2^|S|) across them in
  // arrival order, merges their partials, and returns the amplitude
  // <bits|C|0...0>. Blocks until every worker reported or died.
  CoordinatorResult run_amplitude(int num_workers, const circuit::Circuit& c,
                                  const std::vector<int>& bits, const ServiceOptions& opt = {});

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

// Connects to a coordinator, executes the job it is handed (one fixed
// window, or the elastic lease loop when the job says so), streams the
// partials back, and returns 0 on success (non-zero on any failure).
int serve_worker(const std::string& host, uint16_t port);

// Status probe: connects to a running *elastic* coordinator and returns
// its live lease/heartbeat state as a JSON string (`ltns_cli coordinate
// --status`). Throws std::runtime_error when nothing answers.
std::string query_status(const std::string& host, uint16_t port);

}  // namespace ltns::dist

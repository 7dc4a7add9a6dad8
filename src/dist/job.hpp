// The shared job vocabulary of the TCP drivers: the kJob payload every
// worker replans from, the client-facing JobSpec/JobResultRecord payloads
// of the multi-tenant job server (dist/server.hpp), and the socket/plan
// helpers all of service.cpp, server.cpp and client.cpp need. Factored out
// of service.cpp's anonymous namespace when the job server arrived — there
// must be exactly ONE definition of "what a job is on the wire".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/telemetry.hpp"
#include "cache/cache.hpp"
#include "circuit/circuit.hpp"
#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "dist/wire.hpp"
#include "exec/simd_kernels.hpp"
#include "query/query.hpp"

namespace ltns::dist {

// One job = everything a worker needs to reproduce the coordinator's plan
// and run its shard window.
struct Job {
  uint64_t job_id = 0;  // v5: job-server routing key; 0 for one-shot runs
  std::string circuit_text;
  std::string bits;  // '0'/'1' per qubit
  double target_log2size = 16;
  uint64_t plan_seed = 0;
  uint32_t executor = 0;
  uint64_t grain = 1;
  int32_t workers = 0;
  int32_t num_slices = 0;  // coordinator's |S|; worker must agree
  int32_t shard_id = 0;
  uint64_t first = 0;
  uint64_t count = 0;  // ignored when elastic
  uint32_t fused = 1;
  uint64_t ldm_elems = 32768;
  uint32_t elastic = 0;
  double heartbeat_seconds = 0.2;
  exec::Precision precision = exec::Precision::kFp32;  // v8: GEMM operand precision
  uint32_t trace = 0;  // arm the worker's event tracer; chunk ships via kTrace
  // v6: open output qubits (sorted ascending; empty = closed amplitude
  // job). Workers lower with these open and accumulate a rank-|open| shard
  // instead of a scalar — the query engine's batch groups run through the
  // same lease protocol as classic jobs.
  std::vector<int> open_qubits;
};

void put_job(ByteWriter& w, const Job& j);
Job get_job(ByteReader& r);

// What a client submits: the circuit + plan knobs plus the scheduling
// identity (tenant, weight, priority) the server's fair-share queue keys
// on. Everything execution-related lands in the Job the server derives.
struct JobSpec {
  std::string name;              // human label; "" = server assigns job-<id>
  std::string tenant = "default";
  uint32_t weight = 1;           // fair-share weight; 0 = background-only
  int32_t priority = 0;          // within-tenant tiebreak, higher first
  std::string circuit_text;
  std::string bits;              // '0'/'1' per qubit
  double target_log2size = 16;
  // Default matches the solo path's PlanOptions seed so a submitted spec
  // derives the same plan/result cache keys a solo `amp` run would — the
  // store is shared across transports (docs/caching.md).
  uint64_t plan_seed = core::PlanOptions{}.seed;
  uint32_t fused = 1;
  uint64_t ldm_elems = 32768;
  // v6: job kind. "amp" (default) is the classic single-amplitude job;
  // "query" submits a whole query file (`query_text`, the format
  // query::parse_queries reads) answered through shared batch contractions.
  // `bits` then carries the all-zero base string (its length = num qubits).
  std::string kind = "amp";
  std::string query_text;
  int32_t max_open = 6;           // query grouper merge bound
  std::string amp_mode = "exact"; // "exact" | "grouped" (docs/queries.md)
  // v7: GEMM operand precision, "fp32" (bitwise contract) or "bf16" (mixed
  // precision, deterministic + ULP-bounded). The server validates it and
  // stamps it into every Job it derives for this submission.
  std::string precision = "fp32";
};

void put_job_spec(ByteWriter& w, const JobSpec& s);
JobSpec get_job_spec(ByteReader& r);

// Job lifecycle as the server reports it. Values are wire ABI (v5).
enum class JobState : uint32_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};
const char* job_state_name(JobState s);

// Terminal record of one job, served by kFetchResult and persisted under
// the server's state dir so results survive a server restart.
struct JobResultRecord {
  uint64_t job_id = 0;
  JobState state = JobState::kQueued;
  std::string name;
  std::string tenant;
  std::string error;
  double amplitude_re = 0;
  double amplitude_im = 0;
  int32_t num_slices = 0;
  double wall_seconds = 0;
  uint64_t tasks_run = 0;
  api::RunTelemetry telemetry;
  // v6: "amp" records answer with amplitude_re/im as before; "query"
  // records carry one QueryResult per query in file order.
  std::string kind = "amp";
  std::vector<query::QueryResult> query_results;
};

void put_result_record(ByteWriter& w, const JobResultRecord& r);
JobResultRecord get_result_record(ByteReader& r);

// One query answer on the wire (shared by result records and tests).
void put_query_result(ByteWriter& w, const query::QueryResult& q);
query::QueryResult get_query_result(ByteReader& r);

// RunTelemetry (and its RebalanceStats leg) on the wire — the result frame
// carries the same telemetry tail a solo api::Simulator run returns.
void put_rebalance(ByteWriter& w, const RebalanceStats& s);
RebalanceStats get_rebalance(ByteReader& r);
void put_run_telemetry(ByteWriter& w, const api::RunTelemetry& t);
api::RunTelemetry get_run_telemetry(ByteReader& r);

// The deterministic plan both sides derive independently from the job spec.
// This MUST mirror api::Simulator's prepare pipeline (lower -> simplify ->
// make_plan with default options beyond target/seed) — the documented
// bitwise comparability of `coordinate` vs `amp` depends on it, and the CI
// distributed job diffs the two amplitude lines on every push to catch
// drift.
struct Prepared {
  circuit::LoweredNetwork lowered;
  core::Plan plan;
};
// Heap-allocated on purpose: the plan's ContractionTree stores a raw
// pointer to `lowered.net`, so a Prepared must never move after planning.
// Returning unique_ptr keeps the pointee at one address for its lifetime.
std::unique_ptr<Prepared> prepare_job(const circuit::Circuit& c, const std::vector<int>& bits,
                                      double target, uint64_t seed,
                                      const std::vector<int>& open_qubits = {});

// Cache-aware variant: consults `plan_cache` (content-addressed over the
// job inputs and the exact PlanOptions this function derives) before
// invoking the path optimizer, and inserts a freshly computed plan on a
// miss. `circuit_text` must be the text `c` was parsed from — the key
// hashes the text, not the parsed form. `plan_cache` may be null (plain
// prepare). `from_cache` (optional) reports whether planning was skipped.
// `open_qubits` (v6) leaves those qubits open: the plan contracts to a
// rank-|open| batch tensor instead of a scalar.
std::unique_ptr<Prepared> prepare_job(const circuit::Circuit& c, const std::string& circuit_text,
                                      const std::vector<int>& bits, double target, uint64_t seed,
                                      cache::PlanCache* plan_cache, bool* from_cache = nullptr,
                                      const std::vector<int>& open_qubits = {});

// --- small socket helpers shared by every TCP driver ----------------------

void close_fd(int* fd);

// Best-effort kError frame; never throws (the peer may already be gone).
void send_error(int fd, const std::string& msg);

// Resolves `host` and connects, walking EVERY resolved address per
// attempt (a stale first A record must not mask a working one) and
// retrying every 500 ms up to `attempts` times so callers may start
// before their peer. Returns -1 when nothing answered.
int connect_to(const std::string& host, uint16_t port, int attempts);

}  // namespace ltns::dist

// ltns_cli: command-line front end over the public API.
//
//   ltns_cli gen   <rows> <cols> <cycles> [seed]          # emit a circuit file
//   ltns_cli gen-sycamore <cycles> [seed]
//   ltns_cli plan  <circuit-file>                         # the plan amp would run
//   ltns_cli amp   <circuit-file> <bitstring>             # one amplitude (verified vs sv if <=22q)
//   ltns_cli sample <circuit-file> <n_open> <n_samples>   # correlated samples
//   ltns_cli query <circuit-file> <query-file>            # batched queries, shared contractions
//
//   ltns_cli coordinate <port> <nworkers> <circuit-file> <bitstring>
//   ltns_cli coordinate --status <host> <port>            # live lease state as JSON
//   ltns_cli worker <host> <port>                         # serve one shard job / join a fleet
//
// Multi-tenant service (see docs/service.md):
//   ltns_cli serve <port>                                 # persistent job server
//   ltns_cli submit <host> <port> <circuit-file> <bitstring>
//   ltns_cli status <host> <port> [job-id]                # server or per-job JSON
//   ltns_cli cancel <host> <port> <job-id>
//   ltns_cli result <host> <port> <job-id> [--wait]
//   ltns_cli shutdown <host> <port>
//
// Runtime flags (anywhere on the command line; `--help` prints them grouped
// the way api::SimulatorOptions nests them):
//   --grain=N                    scheduler chunk size (tasks per deque pop)
//   --processes=N                fork N shard processes (amp/sample; default 1)
//   --workers=N                  scheduler width per process (default: hw/N);
//                                its idle workers also share a task's
//                                secondary subtasks
//   --precision=fp32|bf16        GEMM operand precision (default fp32); bf16
//                                keeps fp32 accumulation and is deterministic
//                                but only ULP-close to fp32 (docs/kernels.md).
//                                The kernels' ISA tier is picked at runtime;
//                                LTNS_FORCE_ISA=portable|avx2|avx512|neon
//                                clamps it down (every tier, same bits)
//   --elastic                    lease-based elastic sharding (straggler steal,
//                                dead-worker requeue; amp/sample/coordinate)
//   --lease=N                    tasks per lease (default: auto)
//   --heartbeat=SECONDS          worker liveness period (default 0.2)
//   --stall-timeout=SECONDS      silent-worker revoke threshold (default 30)
//   --spill-dir=PATH             durable run ledger: journal completed ranges
//                                there (elastic only; see docs/operations.md)
//   --resume                     replay an existing spill journal first, so a
//                                restarted coordinator redoes only unfinished
//                                ranges (output stays bitwise identical)
//   --spill-fsync=SECONDS        journal fsync cadence (default 0 = every record)
//   --cache-dir=PATH             persistent plan/result cache directory, shared
//                                across runs AND transports (amp/sample/serve
//                                hit the same store; see docs/caching.md)
//   --plan-cache=N               in-memory plan-cache entries (0 disables)
//   --result-cache=N             in-memory result-cache entries (0 disables)
//   --cache-readonly             consult but never write the on-disk store
//   --trace-out=PATH             arm the event tracer and write the run's
//                                Chrome trace-event JSON there (load it in
//                                chrome://tracing or ui.perfetto.dev; multi-
//                                process runs render as one timeline)
//   --metrics-out=PATH           write the run's final metrics snapshot there
//                                (ltns.metrics.v1 JSON + a .prom twin)
//   --metrics-interval=SECONDS   ALSO rewrite --metrics-out periodically while
//                                an elastic run is live (scraper cadence)
//   --max-open=N                 query grouper merge bound (default 6)
//   --amp-mode=exact|grouped     query amp answers: byte-exact standalone runs
//                                (default) or sliced from grouped batches
//   --queries=FILE               submit: queue FILE as one batched query job
//   --no-telemetry               suppress the executor/memory stats report
//   --version                    print the build stamp (git describe, compiler,
//                                flags) and exit
//
// Circuits use the ltnsqc v1 text format (see src/circuit/io.hpp); "-" reads
// stdin. This is the fourth runnable example and the scripting entry point.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/simulator.hpp"
#include "circuit/io.hpp"
#include "core/planner.hpp"
#include "device/cpu_probe.hpp"
#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/service.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "path/optimizer.hpp"
#include "query/engine.hpp"
#include "runtime/slice_scheduler.hpp"
#include "sv/statevector.hpp"
#include "util/timer.hpp"

using namespace ltns;

namespace {

struct RuntimeFlags {
  uint64_t grain = 1;
  double target = 16;  // planner slicing target (log2 of max tensor size)
  int processes = 1;
  int workers = 0;
  bool telemetry = true;
  bool elastic = false;
  uint64_t lease = 0;
  double heartbeat = 0.2;
  double stall_timeout = 30;
  std::string spill_dir;
  bool resume = false;
  double spill_fsync = 0;
  // Cache flag group (options.cache). The -1 sentinels mean "not given":
  // cmd_serve needs to tell an explicit --plan-cache apart from the default
  // to refuse a memory-only cache behind a long-lived daemon.
  std::string cache_dir;
  long long plan_cache = -1;
  long long result_cache = -1;
  bool cache_readonly = false;
  // Unset means fp32; `serve` refuses an explicit value (precision is per
  // submitted job there).
  std::optional<exec::Precision> precision;
  std::string trace_out;
  std::string metrics_out;
  double metrics_interval = 0;
  // Service verbs (serve / submit / result).
  std::string state_dir;
  uint64_t max_queue = 64;
  int max_running = 4;
  std::string tenant = "default";
  uint32_t weight = 1;
  int priority = 0;
  std::string job_name;
  bool wait = false;
  // Query verbs (query / submit --queries).
  int max_open = 6;
  std::string amp_mode = "exact";
  std::string queries_file;
};

RuntimeFlags g_flags;

// Reads a whole numeric argument or flag value: std::from_chars over the
// entire text, then the range [lo, hi]. Junk, a trailing suffix, an empty
// string, overflow, a non-finite double or a value out of range exits 2
// with one stderr line naming the argument.
template <typename T>
T parse_number(const char* text, const char* what, T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    std::fprintf(stderr, "%s: '%s' is not a number\n", what, text);
    std::exit(2);
  }
  if (v < lo || v > hi) {
    std::ostringstream range;
    range << lo << ".." << hi;
    std::fprintf(stderr, "%s: %s is out of range (%s)\n", what, text, range.str().c_str());
    std::exit(2);
  }
  return v;
}

bool runs_in_process() { return g_flags.processes == 1 && !g_flags.elastic; }

// The scheduler an in-process run uses: --workers wide when given, else
// the process-wide default.
runtime::SliceScheduler& cli_scheduler() {
  if (g_flags.workers == 0) return runtime::SliceScheduler::global();
  static runtime::SliceScheduler sized(g_flags.workers);
  return sized;
}

// Worker threads a run computes on: the in-process scheduler's width, or
// every shard process's scheduler together (exec::run_sharded's split).
int run_workers() {
  if (runs_in_process()) return cli_scheduler().size();
  const int hw = int(std::max(1u, std::thread::hardware_concurrency()));
  const int per = g_flags.workers > 0 ? g_flags.workers : std::max(1, hw / g_flags.processes);
  return per * g_flags.processes;
}

api::SimulatorOptions make_sim_options() {
  api::SimulatorOptions opt;
  opt.plan.target_log2size = g_flags.target;
  if (runs_in_process()) opt.scheduler = &cli_scheduler();
  opt.grain = g_flags.grain;
  opt.precision = g_flags.precision.value_or(exec::Precision::kFp32);
  opt.sharding.processes = g_flags.processes;
  opt.sharding.workers_per_process = g_flags.workers;
  opt.sharding.elastic = g_flags.elastic;
  opt.sharding.lease_size = g_flags.lease;
  opt.sharding.heartbeat_seconds = g_flags.heartbeat;
  opt.sharding.stall_timeout_seconds = g_flags.stall_timeout;
  opt.durability.spill_dir = g_flags.spill_dir;
  opt.durability.resume = g_flags.resume;
  opt.durability.fsync_seconds = g_flags.spill_fsync;
  opt.cache.cache_dir = g_flags.cache_dir;
  if (g_flags.plan_cache >= 0) opt.cache.plan_cache_entries = size_t(g_flags.plan_cache);
  if (g_flags.result_cache >= 0) opt.cache.result_cache_entries = size_t(g_flags.result_cache);
  opt.cache.read_only = g_flags.cache_readonly;
  opt.observability.metrics_out = g_flags.metrics_out;
  opt.observability.metrics_interval_seconds = g_flags.metrics_interval;
  return opt;
}

// Strips the run flags (--grain=, --no-telemetry, ...) from argv; returns
// the rest.
std::vector<char*> parse_runtime_flags(int argc, char** argv) {
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runtime", 9) == 0 &&
        (argv[i][9] == '\0' || argv[i][9] == '=')) {
      std::fprintf(stderr, "--runtime was removed: the scheduler now spreads a task's "
                           "secondary subtasks over its idle workers itself; size it with "
                           "--workers=N\n");
      std::exit(64);
    } else if (std::strncmp(argv[i], "--grain=", 8) == 0) {
      g_flags.grain = parse_number<uint64_t>(argv[i] + 8, "--grain");
    } else if (std::strncmp(argv[i], "--processes=", 12) == 0) {
      g_flags.processes = parse_number<int>(argv[i] + 12, "--processes");
      if (g_flags.processes < 1) {
        std::fprintf(stderr, "--processes must be >= 1\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      g_flags.workers = parse_number<int>(argv[i] + 10, "--workers", 0);
    } else if (std::strncmp(argv[i], "--backend", 9) == 0 &&
               (argv[i][9] == '\0' || argv[i][9] == '=')) {
      std::fprintf(stderr, "--backend was removed: use --precision=fp32|bf16 for the GEMM "
                           "precision and LTNS_FORCE_ISA=portable|avx2|avx512|neon to pin "
                           "the kernel tier\n");
      std::exit(64);
    } else if (std::strncmp(argv[i], "--precision=", 12) == 0) {
      exec::Precision p;
      if (!exec::parse_precision(argv[i] + 12, &p)) {
        std::fprintf(stderr, "unknown --precision '%s' (fp32|bf16)\n", argv[i] + 12);
        std::exit(64);
      }
      g_flags.precision = p;
    } else if (std::strcmp(argv[i], "--elastic") == 0) {
      g_flags.elastic = true;
    } else if (std::strncmp(argv[i], "--lease=", 8) == 0) {
      g_flags.lease = parse_number<uint64_t>(argv[i] + 8, "--lease");
    } else if (std::strncmp(argv[i], "--heartbeat=", 12) == 0) {
      g_flags.heartbeat = parse_number<double>(argv[i] + 12, "--heartbeat");
    } else if (std::strncmp(argv[i], "--stall-timeout=", 16) == 0) {
      g_flags.stall_timeout = parse_number<double>(argv[i] + 16, "--stall-timeout");
    } else if (std::strncmp(argv[i], "--spill-dir=", 12) == 0) {
      g_flags.spill_dir = argv[i] + 12;
      if (g_flags.spill_dir.empty()) {
        std::fprintf(stderr, "--spill-dir needs a path\n");
        std::exit(64);
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      g_flags.resume = true;
    } else if (std::strncmp(argv[i], "--spill-fsync=", 14) == 0) {
      g_flags.spill_fsync = parse_number<double>(argv[i] + 14, "--spill-fsync");
    } else if (std::strncmp(argv[i], "--cache-dir=", 12) == 0) {
      g_flags.cache_dir = argv[i] + 12;
      if (g_flags.cache_dir.empty()) {
        std::fprintf(stderr, "--cache-dir needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--plan-cache=", 13) == 0) {
      g_flags.plan_cache = parse_number<long long>(argv[i] + 13, "--plan-cache");
      if (g_flags.plan_cache < 0) {
        std::fprintf(stderr, "--plan-cache must be >= 0 (0 disables the plan cache)\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--result-cache=", 15) == 0) {
      g_flags.result_cache = parse_number<long long>(argv[i] + 15, "--result-cache");
      if (g_flags.result_cache < 0) {
        std::fprintf(stderr, "--result-cache must be >= 0 (0 disables the result cache)\n");
        std::exit(64);
      }
    } else if (std::strcmp(argv[i], "--cache-readonly") == 0) {
      g_flags.cache_readonly = true;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      g_flags.trace_out = argv[i] + 12;
      if (g_flags.trace_out.empty()) {
        std::fprintf(stderr, "--trace-out needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      g_flags.metrics_out = argv[i] + 14;
      if (g_flags.metrics_out.empty()) {
        std::fprintf(stderr, "--metrics-out needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--metrics-interval=", 19) == 0) {
      g_flags.metrics_interval = parse_number<double>(argv[i] + 19, "--metrics-interval");
    } else if (std::strncmp(argv[i], "--target=", 9) == 0) {
      g_flags.target = parse_number<double>(argv[i] + 9, "--target");
      if (g_flags.target < 1) {
        std::fprintf(stderr, "--target must be >= 1 (log2 of the sliced tensor bound)\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--state-dir=", 12) == 0) {
      g_flags.state_dir = argv[i] + 12;
      if (g_flags.state_dir.empty()) {
        std::fprintf(stderr, "--state-dir needs a path\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--max-queue=", 12) == 0) {
      g_flags.max_queue = parse_number<uint64_t>(argv[i] + 12, "--max-queue");
    } else if (std::strncmp(argv[i], "--max-running=", 14) == 0) {
      g_flags.max_running = parse_number<int>(argv[i] + 14, "--max-running");
      if (g_flags.max_running < 1) {
        std::fprintf(stderr, "--max-running must be >= 1\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--tenant=", 9) == 0) {
      g_flags.tenant = argv[i] + 9;
      if (g_flags.tenant.empty()) {
        std::fprintf(stderr, "--tenant needs a name\n");
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--weight=", 9) == 0) {
      const int w = parse_number<int>(argv[i] + 9, "--weight");
      if (w < 0) {
        std::fprintf(stderr, "--weight must be >= 0 (0 = background-only tenant)\n");
        std::exit(64);
      }
      g_flags.weight = uint32_t(w);
    } else if (std::strncmp(argv[i], "--priority=", 11) == 0) {
      g_flags.priority = parse_number<int>(argv[i] + 11, "--priority");
    } else if (std::strncmp(argv[i], "--job-name=", 11) == 0) {
      g_flags.job_name = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--max-open=", 11) == 0) {
      g_flags.max_open = parse_number<int>(argv[i] + 11, "--max-open");
      if (g_flags.max_open < 0 || g_flags.max_open > query::kMaxOpenQubits) {
        std::fprintf(stderr, "--max-open must be in [0, %d]\n", query::kMaxOpenQubits);
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--amp-mode=", 11) == 0) {
      g_flags.amp_mode = argv[i] + 11;
      if (g_flags.amp_mode != "exact" && g_flags.amp_mode != "grouped") {
        std::fprintf(stderr, "unknown --amp-mode '%s' (exact|grouped)\n",
                     g_flags.amp_mode.c_str());
        std::exit(64);
      }
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      g_flags.queries_file = argv[i] + 10;
      if (g_flags.queries_file.empty()) {
        std::fprintf(stderr, "--queries needs a path\n");
        std::exit(64);
      }
    } else if (std::strcmp(argv[i], "--wait") == 0) {
      g_flags.wait = true;
    } else if (std::strcmp(argv[i], "--version") == 0) {
      const auto& b = obs::build_info();
      std::printf("ltns %s\n  compiler: %s\n  flags: %s\n  build type: %s\n  kernels: %s\n",
                  b.version, b.compiler, b.flags, b.build_type,
                  device::probe_isa_label().c_str());
      std::exit(0);
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      g_flags.telemetry = false;
    } else {
      rest.push_back(argv[i]);
    }
  }
  // A silently-ignored flag combination is worse than an error: an
  // operator who types --resume without --spill-dir believes the run
  // resumed AND re-armed the journal when neither happened. The checks
  // live in api::validate_options — the same gate the Simulator runs — so
  // the CLI and the API can never drift apart on what is coherent.
  std::string bad = api::validate_options(make_sim_options());
  if (!bad.empty()) {
    std::fprintf(stderr, "%s\n", bad.c_str());
    std::exit(64);
  }
  return rest;
}

// cache::CacheStats -> the obs mirror struct the metrics registry takes.
// Also where ltns_planner_invocations_total comes from: the CI cache job
// asserts it stays flat across a warm run.
obs::CacheSample to_cache_sample(const cache::CacheStats* c) {
  obs::CacheSample s;
  if (c != nullptr) {
    const std::pair<const char*, const cache::TierStats*> tiers[] = {{"plan", &c->plan},
                                                                     {"result", &c->result}};
    for (const auto& [name, t] : tiers) {
      obs::CacheTierSample ts;
      ts.tier = name;
      ts.memory_hits = t->memory_hits;
      ts.disk_hits = t->disk_hits;
      ts.misses = t->misses;
      ts.evictions = t->evictions;
      ts.insertions = t->insertions;
      ts.corrupt_dropped = t->corrupt_dropped;
      ts.disk_bytes_written = t->disk_bytes_written;
      ts.memory_entries = t->memory_entries;
      ts.memory_bytes = t->memory_bytes;
      s.tiers.push_back(ts);
    }
    s.superset_hits = c->superset_hits;
  }
  s.planner_invocations = path::find_path_invocations();
  return s;
}

// query::EngineStats -> the obs mirror struct (obs stays free of query
// headers, so the copy lives with the caller).
obs::QuerySample to_query_sample(const query::EngineStats& e) {
  obs::QuerySample s;
  s.queries = e.queries;
  s.amp_queries = e.amp_queries;
  s.batch_queries = e.batch_queries;
  s.sample_queries = e.sample_queries;
  s.expect_queries = e.expect_queries;
  s.groups = e.groups;
  s.closed_groups = e.closed_groups;
  s.open_groups = e.open_groups;
  s.contractions = e.contractions;
  s.planner_passes = e.planner_passes;
  s.plan_cache_hits = e.plan_cache_hits;
  s.plan_rebuilds = e.plan_rebuilds;
  s.result_cache_hits = e.result_cache_hits;
  s.superset_hits = e.superset_hits;
  s.amplitudes_returned = e.amplitudes_returned;
  s.samples_drawn = e.samples_drawn;
  s.errors = e.errors;
  s.plan_seconds = e.plan_seconds;
  s.exec_seconds = e.exec_seconds;
  return s;
}

// One query answer. Shared by the solo `query` verb and `result` on a
// query job, so the two transports emit the SAME bytes per query — and an
// amp answer's `amplitude = ` line is the exact line a standalone `amp`
// run prints (scripts/query_e2e.sh byte-diffs all three). Returns 1 when
// the answer carries an error.
int print_query_result(const query::QueryResult& r) {
  std::printf("# query %d: %s\n", r.id, r.text.c_str());
  if (!r.error.empty()) {
    std::printf("error: %s\n", r.error.c_str());
    return 1;
  }
  switch (r.kind) {
    case query::QueryKind::kAmplitude:
      std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", r.amplitudes[0].real(),
                  r.amplitudes[0].imag(), std::norm(r.amplitudes[0]));
      break;
    case query::QueryKind::kBatch: {
      // Index bits in open-set order, open_qubits[0] most significant —
      // the layout eval.hpp documents.
      int n_open = 0;
      while ((size_t(1) << n_open) < r.amplitudes.size()) ++n_open;
      for (size_t k = 0; k < r.amplitudes.size(); ++k) {
        std::string pattern(size_t(n_open), '0');
        for (int i = 0; i < n_open; ++i)
          if ((k >> (n_open - 1 - i)) & 1) pattern[size_t(i)] = '1';
        std::printf("amplitude[%s] = %+.10e %+.10ei\n", pattern.c_str(), r.amplitudes[k].real(),
                    r.amplitudes[k].imag());
      }
      break;
    }
    case query::QueryKind::kSample:
      for (const auto& s : r.samples) std::printf("%s\n", s.c_str());
      break;
    case query::QueryKind::kExpectation:
      std::printf("expectation = %+.10f\n", r.expectation);
      break;
  }
  return 0;
}

// Post-run observability flush: the merged Chrome trace (local threads +
// any ingested worker chunks) and the final metrics snapshot. Failures are
// reported but never change the exit code — the amplitude already printed.
void flush_observability(const runtime::ExecutorSnapshot& rt, const runtime::MemoryStats& mem,
                         const dist::RebalanceStats& reb, uint64_t tasks_run,
                         uint64_t reduce_merges, double wall_seconds,
                         const cache::CacheStats* cache = nullptr) {
  if (!g_flags.trace_out.empty()) {
    std::string err;
    if (!obs::Tracer::instance().write_chrome_json(g_flags.trace_out, &err))
      std::fprintf(stderr, "trace-out: %s\n", err.c_str());
  }
  if (!g_flags.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    obs::fill_run_metrics(reg, rt, mem, reb, tasks_run, reduce_merges, wall_seconds);
    obs::fill_cache_metrics(reg, to_cache_sample(cache));
    std::string err;
    if (!reg.write_files(g_flags.metrics_out, &err))
      std::fprintf(stderr, "metrics-out: %s\n", err.c_str());
  }
}

void print_shards(const std::vector<dist::ShardTelemetry>& shards) {
  if (!g_flags.telemetry || shards.empty()) return;
  for (const auto& s : shards) {
    const char* isa = s.isa.empty() ? "?" : s.isa.c_str();
    if (s.count > 0)
      std::printf("  shard %d [%s]: tasks %llu of [%llu, %llu), %llu stolen, wall %.3fs\n",
                  int(s.shard), isa, (unsigned long long)s.tasks_run,
                  (unsigned long long)s.first, (unsigned long long)(s.first + s.count),
                  (unsigned long long)s.executor.stolen, s.wall_seconds);
    else
      std::printf("  shard %d [%s]: tasks %llu over %llu leases, wall %.3fs\n", int(s.shard),
                  isa, (unsigned long long)s.tasks_run, (unsigned long long)s.leases,
                  s.wall_seconds);
  }
}

void print_rebalance(const dist::RebalanceStats& r) {
  if (!g_flags.telemetry || (r.leases_issued == 0 && r.ranges_replayed == 0)) return;
  std::printf("rebalance: %llu leases (%llu completed), %llu stolen, %llu reissued, "
              "%llu requeued, %llu late-dropped, %llu workers lost, straggler wait %.3fs\n",
              (unsigned long long)r.leases_issued, (unsigned long long)r.leases_completed,
              (unsigned long long)r.ranges_stolen, (unsigned long long)r.ranges_reissued,
              (unsigned long long)r.ranges_requeued, (unsigned long long)r.late_results_dropped,
              (unsigned long long)r.workers_lost, r.straggler_wait_seconds);
  if (r.ranges_replayed > 0)
    std::printf("resume: %llu ranges (%llu tasks) replayed from the spill journal\n",
                (unsigned long long)r.ranges_replayed, (unsigned long long)r.tasks_replayed);
}

void print_cache(const cache::CacheStats& c) {
  if (!g_flags.telemetry || c.hits() + c.misses() == 0) return;
  std::printf("cache: plan %llu hits (%llu mem, %llu disk) / %llu misses, "
              "result %llu hits (%llu mem, %llu disk) / %llu misses\n",
              (unsigned long long)c.plan.hits(), (unsigned long long)c.plan.memory_hits,
              (unsigned long long)c.plan.disk_hits, (unsigned long long)c.plan.misses,
              (unsigned long long)c.result.hits(), (unsigned long long)c.result.memory_hits,
              (unsigned long long)c.result.disk_hits, (unsigned long long)c.result.misses);
}

// `workers` and `wall_seconds` describe the run when known (0 otherwise):
// utilization is then the whole run's kernel thread-seconds (gemm +
// permute + staging) over workers x wall.
void print_telemetry(const runtime::ExecutorSnapshot& rt, const runtime::MemoryStats& mem,
                     int workers = 0, double wall_seconds = 0) {
  if (!g_flags.telemetry) return;
  std::printf("runtime: %llu tasks (%llu stolen, %llu cancelled)",
              (unsigned long long)rt.finished, (unsigned long long)rt.stolen,
              (unsigned long long)rt.cancelled);
  if (workers > 0 && wall_seconds > 0) {
    const double busy = rt.gemm.seconds + rt.permute.seconds + rt.memory.seconds;
    std::printf(" on %d workers, utilization %.0f%%", workers,
                100 * busy / (workers * wall_seconds));
  }
  std::printf("\n");
  std::printf("  phases: gemm %.3fs (%llu), permute %.3fs (%llu), staging %.3fs, "
              "reduce %.3fs (%llu merges)\n",
              rt.gemm.seconds, (unsigned long long)rt.gemm.count, rt.permute.seconds,
              (unsigned long long)rt.permute.count, rt.memory.seconds, rt.reduce.seconds,
              (unsigned long long)rt.reduce.count);
  std::printf("  memory: main %.3g B, LDM get/put %.3g/%.3g B, RMA %.3g B, "
              "LDM peak %zu elems, host peak %zu elems\n",
              mem.main_bytes, mem.scratch_bytes_get, mem.scratch_bytes_put, mem.rma_bytes,
              mem.ldm_peak_elems, mem.host_peak_elems);
  const auto& d = rt.device;
  if (d.kernel_calls() > 0 || d.stem_steps > 0)
    std::printf("  device [%s]: gemm %llu, permute %llu, stem steps %llu, "
                "to-device %.3g B / %.3g ms, to-host %.3g B / %.3g ms\n",
                device::probe_isa_label().c_str(), (unsigned long long)d.gemm_calls,
                (unsigned long long)d.permute_calls, (unsigned long long)d.stem_steps,
                d.bytes_to_device, d.ns_to_device / 1e6, d.bytes_to_host, d.ns_to_host / 1e6);
}

// The submit verb ships the circuit VERBATIM (the server and every fleet
// worker re-plan from the same text — that textual identity is what makes a
// service job byte-identical to a solo run), so it loads raw text, not a
// parsed Circuit.
std::string load_circuit_text(const char* path) {
  std::ostringstream text;
  if (std::strcmp(path, "-") == 0) {
    text << std::cin.rdbuf();
  } else {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", path);
      std::exit(2);
    }
    text << f.rdbuf();
  }
  return text.str();
}

// Parses circuit text loaded from `path`; malformed text exits 2 with
// "<path>:<line>: <message>".
circuit::Circuit parse_circuit(const std::string& text, const char* path) {
  try {
    return circuit::circuit_from_string(text);
  } catch (const circuit::CircuitParseError& e) {
    std::fprintf(stderr, "%s:%d: %s\n", std::strcmp(path, "-") == 0 ? "<stdin>" : path, e.line,
                 e.message.c_str());
    std::exit(2);
  }
}

circuit::Circuit load_circuit(const char* path) {
  return parse_circuit(load_circuit_text(path), path);
}

// A bitstring argument: exactly `num_qubits` characters, each 0 or 1, or
// exit 2.
std::vector<int> parse_bitstring(const char* text, int num_qubits) {
  const std::string s = text;
  if (int(s.size()) != num_qubits || s.find_first_not_of("01") != std::string::npos) {
    std::fprintf(stderr, "bitstring '%s' must be %d characters of 0 and 1\n", text, num_qubits);
    std::exit(2);
  }
  std::vector<int> bits(s.size());
  for (size_t q = 0; q < s.size(); ++q) bits[q] = s[q] == '1';
  return bits;
}

int cmd_gen(int argc, char** argv, bool sycamore) {
  circuit::RqcOptions rqc;
  circuit::Device dev;
  int base;
  if (sycamore) {
    if (argc < 3) return 64;
    dev = circuit::Device::sycamore53();
    rqc.cycles = parse_number<int>(argv[2], "cycles", 0);
    base = 3;
  } else {
    if (argc < 5) return 64;
    dev = circuit::Device::grid(parse_number<int>(argv[2], "rows", 1, 1024),
                               parse_number<int>(argv[3], "cols", 1, 1024));
    rqc.cycles = parse_number<int>(argv[4], "cycles", 0);
    base = 5;
  }
  if (argc > base) rqc.seed = parse_number<uint64_t>(argv[base], "seed");
  circuit::write_circuit(std::cout, circuit::random_quantum_circuit(dev, rqc));
  return 0;
}

// Plans the circuit as `amp` would for the all-zero bitstring (the same
// options, so --target applies) and reports where the planning time went.
int cmd_plan(int argc, char** argv) {
  if (argc != 3) return 64;
  auto circ = load_circuit(argv[2]);

  auto ln = circuit::lower(circ);
  circuit::simplify(ln);
  std::printf("circuit: %d qubits, %zu gates -> %d tensors / %d indices\n", circ.num_qubits,
              circ.ops.size(), ln.net.num_alive_vertices(), ln.net.num_alive_edges());

  const core::PlanOptions po = make_sim_options().plan;
  auto plan = core::make_plan(ln.net, po);
  std::printf("path (%s): cost 2^%.2f flops, max tensor 2^%.1f\n", plan.path_method.c_str(),
              plan.tree->total_log2cost(), plan.tree->max_log2size());
  std::printf("stem: %d tensors (%.1f%% of flops)\n", plan.stem.length(),
              100 * plan.stem.cost_fraction());
  std::printf("slicing (bound 2^%g): %d edges -> %.0f subtasks, overhead %.4f, sliced max 2^%.1f\n",
              po.target_log2size, plan.num_slices(), plan.num_subtasks(), plan.metrics.overhead(),
              plan.metrics.max_log2size);
  std::printf("planning: path search %.3f s, slicing %.3f s (%d swaps proposed, %d accepted)\n",
              plan.path_seconds, plan.slice_seconds, plan.refine.proposed, plan.refine.accepted);
  return 0;
}

int cmd_amp(int argc, char** argv) {
  if (argc < 4) return 64;
  auto circ = load_circuit(argv[2]);
  const auto bits = parse_bitstring(argv[3], circ.num_qubits);

  api::Simulator sim(circ, make_sim_options());
  auto res = sim.amplitude(bits);
  const auto& tel = res.telemetry;
  if (!tel.error.empty()) {
    std::fprintf(stderr, "sharded run failed: %s\n", tel.error.c_str());
    return 1;
  }
  std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", res.amplitude.real(),
              res.amplitude.imag(), std::norm(res.amplitude));
  std::printf("slices %d, overhead %.4f, flops %.3g\n", res.num_slices, res.slicing.overhead(),
              tel.stats.flops);
  const auto cstats = sim.cache_stats();
  print_telemetry(tel.runtime_stats, tel.memory, run_workers(), res.exec_seconds);
  print_shards(tel.shards);
  print_rebalance(tel.rebalance);
  print_cache(cstats);
  flush_observability(tel.runtime_stats, tel.memory, tel.rebalance, tel.runtime_stats.finished,
                      tel.runtime_stats.reduce.count, res.exec_seconds, &cstats);
  if (circ.num_qubits <= 22) {
    auto exact = sv::simulate_amplitude(circ, bits);
    std::printf("statevector check: |diff| = %.3g\n", std::abs(res.amplitude - exact));
  }
  return 0;
}

int cmd_sample(int argc, char** argv) {
  if (argc < 5) return 64;
  auto circ = load_circuit(argv[2]);
  const int n_open = parse_number<int>(argv[3], "n_open", 1, 20);
  const int n_samples = parse_number<int>(argv[4], "n_samples", 0);
  if (n_open > circ.num_qubits) {
    std::fprintf(stderr, "n_open: %d exceeds the circuit's %d qubits\n", n_open,
                 circ.num_qubits);
    return 2;
  }
  std::vector<int> bits(size_t(circ.num_qubits), 0);
  std::vector<int> open;
  for (int i = 0; i < n_open; ++i) open.push_back(i * circ.num_qubits / n_open);

  api::Simulator sim(circ, make_sim_options());
  Timer wall;
  auto batch = sim.batch_amplitudes(bits, open);
  const double wall_seconds = wall.seconds();
  const auto& tel = batch.telemetry;
  if (!tel.error.empty()) {
    std::fprintf(stderr, "sharded run failed: %s\n", tel.error.c_str());
    return 1;
  }
  auto samples = api::Simulator::sample_from_batch(batch, n_samples, 7);
  std::printf("# open qubits:");
  for (int q : open) std::printf(" %d", q);
  std::printf("\n");
  const auto cstats = sim.cache_stats();
  print_telemetry(tel.runtime_stats, tel.memory, run_workers(), wall_seconds);
  print_shards(tel.shards);
  print_rebalance(tel.rebalance);
  print_cache(cstats);
  flush_observability(tel.runtime_stats, tel.memory, tel.rebalance,
                      tel.runtime_stats.finished, tel.runtime_stats.reduce.count,
                      wall_seconds, &cstats);
  for (auto s : samples) {
    for (int i = 0; i < n_open; ++i) std::putchar('0' + char((s >> (n_open - 1 - i)) & 1));
    std::putchar('\n');
  }
  return 0;
}

// Batched query engine (docs/queries.md): a whole query file against ONE
// circuit, answered through shared contractions and streamed per query as
// its group completes. All run flags apply — --processes/--elastic shard
// each group's contraction, --cache-dir shares plans and results with
// amp/sample/serve. "-" reads the query file from stdin.
int cmd_query(int argc, char** argv) {
  if (argc < 4) return 64;
  auto circ = load_circuit(argv[2]);
  const auto parsed = query::parse_queries(load_circuit_text(argv[3]), circ.num_qubits);
  if (!parsed.ok()) {
    // parse_queries also rejects an EMPTY file, so parsed.queries is
    // non-empty past this point.
    std::fprintf(stderr, "query file: %s\n", parsed.error.c_str());
    return 2;
  }

  api::Simulator sim(circ, make_sim_options());
  query::EngineOptions eo;
  eo.max_open = g_flags.max_open;
  eo.group_amplitudes = g_flags.amp_mode == "grouped";
  query::Engine engine(sim, eo);

  Timer wall;
  int errors = 0;
  const auto st = engine.run(parsed.queries, [&](const query::QueryResult& r) {
    errors += print_query_result(r);
  });
  const double wall_seconds = wall.seconds();

  // The acceptance invariant is readable straight off this line:
  // contractions < queries whenever grouping shared any work.
  std::printf("# queries %llu -> groups %llu (%llu closed, %llu open), contractions %llu\n",
              (unsigned long long)st.queries, (unsigned long long)st.groups,
              (unsigned long long)st.closed_groups, (unsigned long long)st.open_groups,
              (unsigned long long)st.contractions);
  std::printf("# plans: %llu planned, %llu cached, %llu rebuilt; reuse: %llu exact, "
              "%llu superset; wall %.3fs (plan %.3fs, exec %.3fs)\n",
              (unsigned long long)st.planner_passes, (unsigned long long)st.plan_cache_hits,
              (unsigned long long)st.plan_rebuilds, (unsigned long long)st.result_cache_hits,
              (unsigned long long)st.superset_hits, wall_seconds, st.plan_seconds,
              st.exec_seconds);
  const auto cstats = sim.cache_stats();
  print_cache(cstats);

  if (!g_flags.trace_out.empty()) {
    std::string err;
    if (!obs::Tracer::instance().write_chrome_json(g_flags.trace_out, &err))
      std::fprintf(stderr, "trace-out: %s\n", err.c_str());
  }
  if (!g_flags.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    obs::fill_query_metrics(reg, to_query_sample(st));
    obs::fill_cache_metrics(reg, to_cache_sample(&cstats));
    std::string err;
    if (!reg.write_files(g_flags.metrics_out, &err))
      std::fprintf(stderr, "metrics-out: %s\n", err.c_str());
  }
  return errors > 0 ? 1 : 0;
}

// Multi-host mode: `coordinate` shards one amplitude job across `nworkers`
// TCP workers (started separately with `worker`) and prints the same
// amplitude line as `amp`, so the two paths can be diffed byte-for-byte.
int cmd_coordinate(int argc, char** argv) {
  // Status probe: `coordinate --status <host> <port>` asks a live elastic
  // coordinator for its lease/heartbeat state (debugging hung fleets).
  if (argc >= 3 && std::strcmp(argv[2], "--status") == 0) {
    if (argc < 5) return 64;
    const int port = parse_number<int>(argv[4], "port");
    if (port <= 0 || port > 65535) return 64;
    try {
      std::printf("%s\n", dist::query_status(argv[3], uint16_t(port)).c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  if (argc < 6) return 64;
  const int port = parse_number<int>(argv[2], "port");
  const int nworkers = parse_number<int>(argv[3], "nworkers");
  if (port < 0 || port > 65535 || nworkers < 1) return 64;
  auto circ = load_circuit(argv[4]);
  const auto bits = parse_bitstring(argv[5], circ.num_qubits);

  dist::ServiceOptions so;
  so.target_log2size = g_flags.target;
  so.grain = g_flags.grain;
  so.workers_per_process = g_flags.workers;
  so.precision = g_flags.precision.value_or(exec::Precision::kFp32);
  so.elastic = g_flags.elastic;
  so.lease_size = g_flags.lease;
  so.heartbeat_seconds = g_flags.heartbeat;
  so.stall_timeout_seconds = g_flags.stall_timeout;
  so.spill_dir = g_flags.spill_dir;
  so.resume = g_flags.resume;
  so.spill_fsync_seconds = g_flags.spill_fsync;
  so.trace = !g_flags.trace_out.empty();
  so.metrics_out = g_flags.metrics_out;
  so.metrics_interval_seconds = g_flags.metrics_interval;
  dist::CoordinatorServer server{uint16_t(port)};
  std::fprintf(stderr, "coordinator listening on port %u, waiting for %d workers\n",
               unsigned(server.port()), nworkers);
  auto res = server.run_amplitude(nworkers, circ, bits, so);
  if (!res.completed) {
    std::fprintf(stderr, "distributed run failed: %s\n", res.error.c_str());
    return 1;
  }
  std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", res.amplitude.real(),
              res.amplitude.imag(), std::norm(res.amplitude));
  std::printf("slices %d, tasks %llu over %d workers\n", res.num_slices,
              (unsigned long long)res.tasks_run, nworkers);
  print_shards(res.shards);
  print_rebalance(res.rebalance);
  runtime::ExecutorSnapshot rt;
  runtime::MemoryStats mem;
  uint64_t reduce_merges = 0;
  for (const auto& s : res.shards) {
    rt.merge(s.executor);
    mem.merge(s.memory);
    reduce_merges += s.reduce_merges;
  }
  flush_observability(rt, mem, res.rebalance, res.tasks_run, reduce_merges, res.wall_seconds);
  if (circ.num_qubits <= 22) {
    auto exact = sv::simulate_amplitude(circ, bits);
    std::printf("statevector check: |diff| = %.3g\n", std::abs(res.amplitude - exact));
  }
  return 0;
}

int cmd_worker(int argc, char** argv) {
  if (argc < 4) return 64;
  const int port = parse_number<int>(argv[3], "port");
  if (port <= 0 || port > 65535) return 64;
  const int rc = dist::serve_worker(argv[2], uint16_t(port));
  // A worker given --trace-out also keeps a local copy of its own lane —
  // the coordinator still gets the kTrace chunk for the merged timeline.
  if (!g_flags.trace_out.empty() && obs::Tracer::instance().enabled()) {
    std::string err;
    if (!obs::Tracer::instance().write_chrome_json(g_flags.trace_out, &err))
      std::fprintf(stderr, "trace-out: %s\n", err.c_str());
  }
  return rc;
}

// --- multi-tenant service verbs (dist/server.hpp + dist/client.hpp) --------

int cmd_serve(int argc, char** argv) {
  if (argc < 3) return 64;
  const int port = parse_number<int>(argv[2], "port");
  if (port < 0 || port > 65535) return 64;
  if (g_flags.precision) {
    std::fprintf(stderr, "serve: --precision is per job; pass it to submit\n");
    return 64;
  }
  dist::ServerOptions so;
  so.state_dir = g_flags.state_dir;
  // --processes picks the notional home-window count of every job's lease
  // ledger (the fleet itself grows and shrinks freely).
  so.home_workers = std::max(2, g_flags.processes);
  so.lease_size = g_flags.lease;
  so.heartbeat_seconds = g_flags.heartbeat;
  so.stall_timeout_seconds = g_flags.stall_timeout;
  so.fsync_seconds = g_flags.spill_fsync;
  so.workers_per_process = g_flags.workers;
  so.grain = g_flags.grain;
  so.metrics_out = g_flags.metrics_out;
  so.metrics_interval_seconds = g_flags.metrics_interval;
  so.admission.max_queued = size_t(g_flags.max_queue);
  so.admission.max_running = g_flags.max_running;
  // The server only engages the cache with a persistent tier behind it: a
  // memory-only cache inside a long-lived daemon would claim fingerprints
  // that silently vanish on restart. Explicit cache flags without
  // --cache-dir are therefore a refused combination, not a quiet no-op.
  if (g_flags.cache_dir.empty() &&
      (g_flags.plan_cache >= 0 || g_flags.result_cache >= 0 || g_flags.cache_readonly)) {
    std::fprintf(stderr, "serve: cache flags require --cache-dir (a memory-only cache in a "
                         "persistent daemon would vanish on restart)\n");
    return 64;
  }
  so.cache.cache_dir = g_flags.cache_dir;
  if (g_flags.plan_cache >= 0) so.cache.plan_cache_entries = size_t(g_flags.plan_cache);
  if (g_flags.result_cache >= 0) so.cache.result_cache_entries = size_t(g_flags.result_cache);
  so.cache.read_only = g_flags.cache_readonly;
  try {
    dist::JobServer server{uint16_t(port), so};
    std::fprintf(stderr, "job server listening on port %u%s\n", unsigned(server.port()),
                 g_flags.state_dir.empty() ? " (volatile: no --state-dir)" : "");
    const auto err = server.serve();
    if (!err.empty()) {
      std::fprintf(stderr, "job server failed: %s\n", err.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_submit(int argc, char** argv) {
  const bool query_job = !g_flags.queries_file.empty();
  if (argc < (query_job ? 5 : 6)) return 64;
  if (query_job && argc > 5) {
    std::fprintf(stderr, "submit --queries=FILE takes no bitstring argument\n");
    return 64;
  }
  const int port = parse_number<int>(argv[3], "port");
  if (port <= 0 || port > 65535) return 64;
  dist::JobSpec spec;
  spec.name = g_flags.job_name;
  spec.tenant = g_flags.tenant;
  spec.weight = g_flags.weight;
  spec.priority = g_flags.priority;
  spec.circuit_text = load_circuit_text(argv[4]);
  // The server re-plans from the text verbatim; parsing it here only
  // rejects a bad circuit or bitstring before it is queued.
  const int num_qubits = parse_circuit(spec.circuit_text, argv[4]).num_qubits;
  spec.target_log2size = g_flags.target;
  spec.precision = exec::precision_name(g_flags.precision.value_or(exec::Precision::kFp32));
  if (query_job) {
    // Kind "query": the whole query file rides in the spec; bits carries
    // the all-zero base string (its length tells the server the qubit
    // count), so the circuit must parse client-side.
    spec.kind = "query";
    spec.query_text = load_circuit_text(g_flags.queries_file.c_str());
    spec.max_open = g_flags.max_open;
    spec.amp_mode = g_flags.amp_mode;
    spec.bits.assign(size_t(num_qubits), '0');
  } else {
    parse_bitstring(argv[5], num_qubits);
    spec.bits = argv[5];
  }
  try {
    auto rep = dist::submit_job(argv[2], uint16_t(port), spec);
    if (!rep.ok) {
      std::fprintf(stderr, "rejected: %s\n", rep.message.c_str());
      return 1;
    }
    std::printf("job %llu %s (tenant %s, weight %u, priority %d)\n",
                (unsigned long long)rep.job_id, rep.message.c_str(), spec.tenant.c_str(),
                spec.weight, spec.priority);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_status(int argc, char** argv) {
  if (argc < 4) return 64;
  const int port = parse_number<int>(argv[3], "port");
  if (port <= 0 || port > 65535) return 64;
  const uint64_t job_id = argc > 4 ? parse_number<uint64_t>(argv[4], "job-id") : 0;
  try {
    std::printf("%s\n", dist::job_status_json(argv[2], uint16_t(port), job_id).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_cancel(int argc, char** argv) {
  if (argc < 5) return 64;
  const int port = parse_number<int>(argv[3], "port");
  if (port <= 0 || port > 65535) return 64;
  try {
    const uint64_t job_id = parse_number<uint64_t>(argv[4], "job-id");
    auto rep = dist::cancel_job(argv[2], uint16_t(port), job_id);
    std::fprintf(rep.ok ? stdout : stderr, "%s\n", rep.message.c_str());
    return rep.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_result(int argc, char** argv) {
  if (argc < 5) return 64;
  const int port = parse_number<int>(argv[3], "port");
  if (port <= 0 || port > 65535) return 64;
  try {
    auto rec =
        dist::fetch_result(argv[2], uint16_t(port), parse_number<uint64_t>(argv[4], "job-id"),
                           g_flags.wait);
    if (rec.state != dist::JobState::kDone) {
      std::fprintf(stderr, "job %llu %s: %s\n", (unsigned long long)rec.job_id,
                   dist::job_state_name(rec.state), rec.error.c_str());
      return 1;
    }
    if (rec.kind == "query") {
      // Per-query blocks in file order, through the SAME printer the solo
      // `query` verb uses — a served query job's amplitude lines byte-match
      // both the solo query run and standalone `amp` runs.
      int errors = 0;
      for (const auto& q : rec.query_results) errors += print_query_result(q);
      std::printf("# queries %zu, wall %.3fs\n", rec.query_results.size(), rec.wall_seconds);
      print_telemetry(rec.telemetry.runtime_stats, rec.telemetry.memory);
      print_shards(rec.telemetry.shards);
      print_rebalance(rec.telemetry.rebalance);
      return errors > 0 ? 1 : 0;
    }
    const std::complex<double> amp(rec.amplitude_re, rec.amplitude_im);
    // The exact line `amp`/`coordinate` print — the service e2e byte-diffs
    // a job's amplitude against a solo run's.
    std::printf("amplitude = %+.10e %+.10ei  (|a|^2 = %.3e)\n", amp.real(), amp.imag(),
                std::norm(amp));
    std::printf("slices %d, tasks %llu, wall %.3fs\n", rec.num_slices,
                (unsigned long long)rec.tasks_run, rec.wall_seconds);
    print_telemetry(rec.telemetry.runtime_stats, rec.telemetry.memory);
    print_shards(rec.telemetry.shards);
    print_rebalance(rec.telemetry.rebalance);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_shutdown(int argc, char** argv) {
  if (argc < 4) return 64;
  const int port = parse_number<int>(argv[3], "port");
  if (port <= 0 || port > 65535) return 64;
  try {
    auto rep = dist::shutdown_server(argv[2], uint16_t(port));
    std::fprintf(rep.ok ? stdout : stderr, "%s\n", rep.message.c_str());
    return rep.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  // Resolve the kernel tier before anything runs: a typo'd LTNS_FORCE_ISA
  // is a usage error, not an exception out of the first kernel call.
  try {
    device::cpu_probe();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 64;
  }
  auto args = parse_runtime_flags(raw_argc, raw_argv);
  int argc = int(args.size());
  char** argv = args.data();
  // Arm the tracer before any run starts: this process records as the
  // coordinator lane (rank -1 -> pid 0); forked shard workers re-home
  // themselves after the fork and a TCP worker takes the rank its job
  // assigns (see src/obs/trace.hpp).
  if (!g_flags.trace_out.empty()) {
    const bool is_worker = argc >= 2 && std::strcmp(argv[1], "worker") == 0;
    obs::Tracer::instance().enable(is_worker ? 0 : -1);
  }
  // Usage sections mirror the api::SimulatorOptions nesting: run-level
  // knobs, then sharding.*, durability.*, observability.*, and the service
  // flags the options structs don't cover.
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "help") == 0) {
    std::fprintf(stderr,
                 "usage: ltns_cli <verb> [args] [flags]\n"
                 "\n"
                 "circuits:\n"
                 "  gen <rows> <cols> <cycles> [seed]       emit a random circuit\n"
                 "  gen-sycamore <cycles> [seed]            emit a Sycamore-53 circuit\n"
                 "  plan <circuit|->                        the plan amp would run (honours\n"
                 "                                          --target) and its planning time\n"
                 "\n"
                 "one-shot runs:\n"
                 "  amp|run <circuit|-> <bitstring>         one amplitude (sv check <= 22q)\n"
                 "  sample <circuit|-> <n_open> <n_samples> correlated samples\n"
                 "  query <circuit|-> <queries|->           batched queries over one planned\n"
                 "                                          circuit (docs/queries.md)\n"
                 "  coordinate <port> <n> <circuit|-> <bits> shard one job over TCP workers\n"
                 "  coordinate --status <host> <port>       live lease state as JSON\n"
                 "  worker <host> <port>                    serve a coordinator OR a fleet\n"
                 "\n"
                 "multi-tenant service (docs/service.md):\n"
                 "  serve <port>                            persistent fair-share job server\n"
                 "  submit <host> <port> <circuit|-> <bits> queue a job, print its id\n"
                 "  status <host> <port> [job-id]           server (or one job) JSON\n"
                 "  cancel <host> <port> <job-id>           cancel a queued/running job\n"
                 "  result <host> <port> <job-id> [--wait]  fetch (or await) a result\n"
                 "  shutdown <host> <port>                  drain the fleet and exit\n"
                 "\n"
                 "run flags:\n"
                 "  --grain=N\n"
                 "  --precision=fp32|bf16   GEMM operand precision (default fp32); the\n"
                 "                  kernel tier is probed at runtime, LTNS_FORCE_ISA\n"
                 "                  clamps it (docs/kernels.md)\n"
                 "  --target=N   planner slicing bound, log2 elems (default 16)\n"
                 "query (docs/queries.md):\n"
                 "  --max-open=N       batch-group merge bound (default 6)\n"
                 "  --amp-mode=exact|grouped   amp answers byte-match solo runs (exact,\n"
                 "                     default) or may slice from grouped batches\n"
                 "sharding (options.sharding):\n"
                 "  --processes=N --workers=N --elastic --lease=N --heartbeat=S\n"
                 "  --stall-timeout=S\n"
                 "durability (options.durability):\n"
                 "  --spill-dir=PATH --resume --spill-fsync=S\n"
                 "cache (options.cache, docs/caching.md):\n"
                 "  --cache-dir=PATH   persistent plan/result store (amp/sample/serve share it)\n"
                 "  --plan-cache=N --result-cache=N   LRU entries (0 disables that cache)\n"
                 "  --cache-readonly   consult but never write the on-disk store\n"
                 "observability (options.observability):\n"
                 "  --trace-out=PATH --metrics-out=PATH --metrics-interval=S --no-telemetry\n"
                 "service:\n"
                 "  serve:  --state-dir=PATH --max-queue=N --max-running=N\n"
                 "  submit: --tenant=NAME --weight=N --priority=N --job-name=NAME\n"
                 "          --queries=FILE  queue the query file as one batched job\n"
                 "                          (then no <bits> argument; docs/queries.md)\n"
                 "  result: --wait\n"
                 "misc:\n"
                 "  --version --help\n");
    return argc < 2 ? 64 : 0;
  }
  std::string cmd = argv[1];
  int rc = 64;
  if (cmd == "gen") rc = cmd_gen(argc, argv, false);
  else if (cmd == "gen-sycamore") rc = cmd_gen(argc, argv, true);
  else if (cmd == "plan") rc = cmd_plan(argc, argv);
  else if (cmd == "amp" || cmd == "run") rc = cmd_amp(argc, argv);
  else if (cmd == "sample") rc = cmd_sample(argc, argv);
  else if (cmd == "query") rc = cmd_query(argc, argv);
  else if (cmd == "coordinate") rc = cmd_coordinate(argc, argv);
  else if (cmd == "worker") rc = cmd_worker(argc, argv);
  else if (cmd == "serve") rc = cmd_serve(argc, argv);
  else if (cmd == "submit") rc = cmd_submit(argc, argv);
  else if (cmd == "status") rc = cmd_status(argc, argv);
  else if (cmd == "cancel") rc = cmd_cancel(argc, argv);
  else if (cmd == "result") rc = cmd_result(argc, argv);
  else if (cmd == "shutdown") rc = cmd_shutdown(argc, argv);
  if (rc == 64) std::fprintf(stderr, "bad arguments; run `ltns_cli --help` for usage\n");
  return rc;
}

// ltns_perfbench: the benchmark's driver binary, linked against libltns.
//
//   ltns_perfbench gen grid <rows> <cols> <cycles> <seed> <out>
//   ltns_perfbench gen sycamore <cycles> <seed> <out>
//   ltns_perfbench reference amp <circuit> <bits> <out>
//   ltns_perfbench reference queries <circuit> <queries> <out>
//   ltns_perfbench solo <circuit> <bits> <out>
//   ltns_perfbench run <workload> --seconds S --trace 0|1 [inputs...]
//
// perfbench/run.py drives these; see perfbench/README.md. `run` times the
// calls into the program's public functions from outside, checks every
// answer, and prints one JSON object. Knobs that are not part of a workload
// (backend, executor, grain, lease size, fused) stay at their
// api::SimulatorOptions defaults, so a change to a default shows here.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/simulator.hpp"
#include "cache/cache.hpp"
#include "circuit/io.hpp"
#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "device/cpu_probe.hpp"
#include "exec/fused_executor.hpp"
#include "host_probe.hpp"
#include "obs/build_info.hpp"
#include "path/optimizer.hpp"
#include "query/engine.hpp"
#include "reference.hpp"
#include "runtime/slice_scheduler.hpp"
#include "spans.hpp"

using namespace ltns;
using perfbench::cd;
using perfbench::HostProbe;
using perfbench::median;
using perfbench::now_seconds;
using perfbench::Recorder;
using perfbench::Scope;
using perfbench::Timing;

namespace {

// The memory bound of the amplitude and query workloads: 2^16 elements,
// the ltns_cli default. plan_sycamore keeps PlanOptions' own 2^30.
constexpr double kAmpBoundLog2 = 16;
// setup_s is the median of fresh prepares, repeated at least kSetupRepeats
// times and for at least kSetupSeconds, so a short prepare gets enough
// samples to outvote scheduling jitter.
constexpr int kSetupRepeats = 9;
constexpr double kSetupSeconds = 2;
// plan_sycamore always plans the whole set at least this many times.
constexpr int kMinPlanPasses = 3;
// Host-probe samples taken before each timed pass; their median scales the
// pass (host_probe.hpp).
constexpr int kProbesPerPass = 3;
// query_mix: extra runs stopped at their first streamed answer.
constexpr int kFirstResultProbes = 15;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
}

std::vector<int> parse_bits(const std::string& s, int n) {
  if (int(s.size()) != n) throw std::runtime_error("bitstring length != qubit count");
  std::vector<int> bits;
  for (char ch : s) {
    if (ch != '0' && ch != '1') throw std::runtime_error("bitstring must be 0/1");
    bits.push_back(ch == '1');
  }
  return bits;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  for (std::string w; is >> w;) out.push_back(w);
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);)
    if (!line.empty()) out.push_back(line);
  return out;
}

// Doubles travel as C99 hex floats so bitwise comparisons survive a file.
std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / double(v.size());
}

// Peak resident set of this process and of every child it has waited for
// (the elastic workload's forked workers), in MiB. This process's own peak
// is VmHWM outside the host probe's samples, not RUSAGE_SELF: Linux
// carries ru_maxrss across exec, so it would also count the process that
// launched this one.
double peak_rss_mb() {
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return std::max(perfbench::peak_rss_outside_probe_kib(), double(kids.ru_maxrss)) / 1024.0;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (ch == '\n') {
      o += "\\n";
      continue;
    }
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    o += ch;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Answer checks.

// fp32 tolerance: the program contracts in float, the reference is double.
// Amplitudes are compared against 1e-3 of the typical magnitude 2^(-n/2);
// a wrong contraction is off by the order of that magnitude.
bool amp_close(cd got, cd want, int num_qubits) {
  return std::abs(got - want) <= 1e-3 * std::exp2(-0.5 * num_qubits);
}
constexpr double kExpectTolerance = 1e-4;

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the record

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Metric output.

struct Report {
  Tally tally;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> env;
  std::string spans_file;
};

void print_report(const Report& r, const std::string& workload) {
  std::printf("{\"workload\": \"%s\", \"attempted\": %llu, \"failed\": %llu, \"failures\": [",
              workload.c_str(), (unsigned long long)r.tally.attempted,
              (unsigned long long)r.tally.failed);
  for (size_t i = 0; i < r.tally.failures.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(r.tally.failures[i]).c_str());
  std::printf("], \"metrics\": {");
  size_t i = 0;
  for (const auto& [k, v] : r.metrics)
    std::printf("%s\"%s\": %.17g", i++ ? ", " : "", k.c_str(), v);
  std::printf("}, \"env\": {");
  i = 0;
  for (const auto& [k, v] : r.env)
    std::printf("%s\"%s\": \"%s\"", i++ ? ", " : "", k.c_str(), json_escape(v).c_str());
  std::printf("}, \"spans_file\": \"%s\"}\n", json_escape(r.spans_file).c_str());
}

void stamp_env(Report& r, int threads, int processes) {
  r.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.env["isa"] = device::probe_isa_label();
  r.env["build"] = obs::build_info_json();
  r.env["threads"] = std::to_string(threads);
  r.env["processes"] = std::to_string(processes);
}

double shard_wall_max(const api::RunTelemetry& t) {
  double w = 0;
  for (const auto& s : t.shards) w = std::max(w, s.wall_seconds);
  return w;
}

// Layer counts from a run's telemetry (RunTelemetry is the program's own
// per-run record: scheduler snapshot, device counters, memory recorder).
void add_telemetry(Report& r, const api::RunTelemetry& t) {
  const auto& rt = t.runtime_stats;
  auto& m = r.metrics;
  m["exec.permute_thread_s"] += rt.permute.seconds;
  m["exec.gemm_thread_s"] += rt.gemm.seconds;
  m["exec.staging_thread_s"] += rt.memory.seconds;
  m["exec.permute_calls"] += double(rt.device.permute_calls);
  m["exec.gemm_calls"] += double(rt.device.gemm_calls);
  m["exec.stem_steps"] += double(rt.device.stem_steps);
  m["exec.flops"] += t.stats.flops;
  m["exec.main_bytes"] += t.memory.main_bytes;
  m["device.to_device_bytes"] += rt.device.bytes_to_device;
  m["device.transfer_s"] += (rt.device.ns_to_device + rt.device.ns_to_host) * 1e-9;
  m["runtime.tasks"] += double(rt.finished);
  m["runtime.stolen"] += double(rt.stolen);
  m["runtime.reduce_s"] += rt.reduce.seconds;
  m["runtime.reduce_merges"] += double(rt.reduce.count);
  m["dist.leases"] += double(t.rebalance.leases_completed);
  m["dist.leases_stolen"] += double(t.rebalance.ranges_stolen);
  m["dist.leases_reissued"] += double(t.rebalance.ranges_reissued);
  m["dist.straggler_wait_s"] += t.rebalance.straggler_wait_seconds;
  m["dist.shard_wall_max_s"] += shard_wall_max(t);
}

// Counts summed over traced passes (by add_telemetry, and coord overhead
// by run_amp), reported as per-pass means.
constexpr const char* kPerPassSums[] = {
    "exec.permute_thread_s", "exec.gemm_thread_s",   "exec.staging_thread_s",
    "exec.permute_calls",    "exec.gemm_calls",      "exec.stem_steps",
    "exec.flops",            "exec.main_bytes",      "device.to_device_bytes",
    "device.transfer_s",     "runtime.tasks",        "runtime.stolen",
    "runtime.reduce_s",      "runtime.reduce_merges", "dist.leases",
    "dist.leases_stolen",    "dist.leases_reissued", "dist.straggler_wait_s",
    "dist.shard_wall_max_s", "dist.coord_overhead_s"};

// Divides a summed metric by `by`, if the workload reported it at all.
void scale_down(Report& r, const char* k, double by) {
  auto it = r.metrics.find(k);
  if (it != r.metrics.end()) it->second /= by;
}

void finish_telemetry(Report& r, int traced_passes, double utilization) {
  auto& m = r.metrics;
  for (const char* k : kPerPassSums) scale_down(r, k, traced_passes);
  m["runtime.utilization"] = utilization;
  m["exec.gemm_gflops"] =
      m["exec.gemm_thread_s"] > 0 ? m["exec.flops"] / m["exec.gemm_thread_s"] * 1e-9 : 0;
}

void add_cache_stats(Report& r, const cache::CacheStats& c) {
  auto& m = r.metrics;
  m["cache.plan_hits"] = double(c.plan.hits());
  m["cache.plan_misses"] = double(c.plan.misses);
  m["cache.plan_evictions"] = double(c.plan.evictions);
  const double lookups = double(c.plan.hits() + c.plan.misses);
  m["cache.plan_hit_ratio"] = lookups > 0 ? double(c.plan.hits()) / lookups : 0;
}

// The layers under Simulator::prepare, called one by one: lower, simplify,
// path search, planning, fused-window planning. make_plan runs its own path
// search, so core.slice_s is later derived as make_plan minus find_path.
void probe_prepare(Recorder& rec, Report& r, const circuit::Circuit& c,
                   const std::vector<int>& bits, const core::PlanOptions& po, size_t ldm_elems) {
  circuit::LoweringOptions lo;
  lo.output_bits = bits;
  circuit::LoweredNetwork ln;
  {
    Scope s(rec, "circuit.lower");
    ln = circuit::lower(c, lo);
  }
  {
    Scope s(rec, "circuit.simplify");
    circuit::simplify(ln);
  }
  path::PathResult pr;
  {
    Scope s(rec, "path.find_path");
    pr = path::find_path(ln.net, po.path);
  }
  core::Plan plan;
  {
    Scope s(rec, "core.make_plan");
    plan = core::make_plan(ln.net, po);
  }
  {
    Scope s(rec, "exec.plan_fused");
    const auto fp = exec::plan_fused(plan.stem, plan.slices.to_vector(), ldm_elems);
    if (fp.windows.empty() && plan.stem.length() > 0)
      throw std::runtime_error("plan_fused returned no windows");
  }
  auto& m = r.metrics;
  m["circuit.tensors"] += ln.net.num_alive_vertices();
  m["path.log2cost"] += pr.log2cost;
  m["path.log2size"] += pr.log2size;
  m["core.num_slices"] += plan.num_slices();
  m["core.slicing_overhead"] += plan.metrics.overhead();
  m["core.subtasks"] += plan.num_subtasks();
}

// Per-pass mean self time of each traced layer span; `plans` is how many
// probe_prepare calls one pass makes (their counts were summed). A metric
// whose spans were never recorded is left out, not reported as 0.
void finish_span_metrics(Report& r, const Recorder& rec, int traced_passes, int plans) {
  const auto self = rec.self_by_name();
  auto& m = r.metrics;
  auto put = [&](const char* metric, const char* span) {
    auto it = self.find(span);
    if (it != self.end()) m[metric] = it->second / traced_passes;
  };
  put("circuit.lower_s", "circuit.lower");
  put("circuit.simplify_s", "circuit.simplify");
  put("path.find_path_s", "path.find_path");
  put("exec.plan_fused_s", "exec.plan_fused");
  put("api.prepare_like_s", "api.prepare_like");
  put("query.parse_s", "query.parse");
  put("query.sample_s", "query.sample_from_batch");
  if (self.count("core.make_plan") && self.count("path.find_path"))
    m["core.slice_s"] = std::max(
        0.0, (self.at("core.make_plan") - self.at("path.find_path")) / traced_passes);
  const double per = double(traced_passes) * plans;
  for (const char* k : {"circuit.tensors", "path.log2cost", "path.log2size", "core.num_slices",
                        "core.slicing_overhead", "core.subtasks"})
    scale_down(r, k, per);
}

// The end-to-end times: medians over passes in reference seconds
// (host_probe.hpp). setup_s was scaled by the probe of planning's one
// thread, solve_s and first_result_s by the probe of the threads the solve
// keeps busy. The wall-second medians and the probes' medians go into the
// record next to them.
void put_times(Report& r, const Timing& setup, const Timing& solve, const Timing& first,
               const HostProbe& setup_probe, const HostProbe& solve_probe) {
  auto& m = r.metrics;
  m["setup_s"] = median(setup.scaled);
  m["solve_s"] = median(solve.scaled);
  m["first_result_s"] = median(first.scaled);
  m["bench.setup_wall_s"] = median(setup.wall);
  m["bench.solve_wall_s"] = median(solve.wall);
  m["bench.first_result_wall_s"] = median(first.wall);
  m["bench.host_probe_1t_s"] = setup_probe.median_seconds();
  m["bench.host_probe_s"] = solve_probe.median_seconds();
}

// ---------------------------------------------------------------------------
// Workloads. Each timed pass starts from a fresh api::Simulator, so no
// pass is answered from the previous pass's plan or result cache.

struct RunArgs {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  std::map<std::string, std::string> in;  // --circuit, --bits, --ref, ...

  const std::string& need(const std::string& k) const {
    auto it = in.find(k);
    if (it == in.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
};

api::SimulatorOptions amp_options(bool elastic) {
  api::SimulatorOptions o;
  o.plan.target_log2size = kAmpBoundLog2;
  if (elastic) {
    o.sharding.processes = 4;
    o.sharding.workers_per_process = 1;
    o.sharding.elastic = true;
  }
  return o;
}

std::pair<cd, bool> read_amp_file(const std::string& path) {
  const auto w = split_ws(read_file(path));
  if (w.size() != 2) return {cd(0), false};
  return {cd(std::strtod(w[0].c_str(), nullptr), std::strtod(w[1].c_str(), nullptr)), true};
}

std::string amp_text(cd a) { return hex(a.real()) + " " + hex(a.imag()) + "\n"; }

// Times Simulator::prepare, each call on a fresh Simulator so none is
// served by the plan cache, and each right after one sample of `probe` (one
// thread).
Timing measure_setup(const circuit::Circuit& c, const api::SimulatorOptions& opt,
                     const std::vector<int>& bits, HostProbe& probe, double* log2_flops) {
  Timing t;
  const double begin = now_seconds();
  while (int(t.wall.size()) < kSetupRepeats || now_seconds() - begin < kSetupSeconds) {
    const double factor = probe.factor(1);
    api::Simulator sim(c, opt);
    const double t0 = now_seconds();
    const auto plan = sim.prepare(bits);
    t.add(now_seconds() - t0, factor);
    *log2_flops = plan.slicing().log2_total_cost;
  }
  return t;
}

void run_amp(const RunArgs& a, bool elastic, Report& r, Recorder& rec) {
  const auto circ = circuit::circuit_from_string(read_file(a.need("circuit")));
  const auto bits = parse_bits(split_ws(read_file(a.need("bits"))).at(0), circ.num_qubits);
  const auto [ref, ref_ok] = read_amp_file(a.need("ref"));
  if (!ref_ok) throw std::runtime_error("bad reference file");
  cd solo(0);
  if (elastic) {
    const auto [s, ok] = read_amp_file(a.need("solo"));
    if (!ok) throw std::runtime_error("bad solo answer file");
    solo = s;
  }
  const auto opt = amp_options(elastic);
  // The solve keeps 4 one-worker processes or the global scheduler busy.
  const int threads = elastic ? 4 : int(runtime::SliceScheduler::global().size());
  HostProbe probe(threads), probe1(1);

  Timing solve_plain, first;
  std::vector<double> solve_traced;
  cd answer(0);
  bool have_answer = false;
  double utilization = 0;
  int traced = 0;
  // Untraced passes for `seconds`, then (with --trace 1) traced passes for
  // as long again. At least one pass each.
  for (int phase = 0; phase < (a.trace ? 2 : 1); ++phase) {
    const bool tracing = phase == 1;
    const double begin = now_seconds();
    do {
      const double factor = probe.factor(kProbesPerPass);
      rec.set_run(int(solve_plain.wall.size() + solve_traced.size()));
      Recorder quiet(false);
      Recorder& sp = tracing ? rec : quiet;
      Scope pass(sp, "pass");
      try {
        const double t0 = now_seconds();
        api::Simulator sim(circ, opt);
        api::PreparedPlan plan;
        {
          Scope s(sp, "api.prepare");
          plan = sim.prepare(bits);
        }
        const double t1 = now_seconds();
        api::AmplitudeResult res;
        {
          Scope s(sp, "api.amplitude");
          res = sim.amplitude(plan);
        }
        const double t2 = now_seconds();
        const auto& tel = res.telemetry;
        bool ok = res.completed && tel.error.empty() && !res.from_cache &&
                  amp_close(res.amplitude, ref, circ.num_qubits);
        if (elastic) ok = ok && res.amplitude == solo;
        r.tally.check(ok, "amplitude " + hex(res.amplitude.real()) + " " +
                              hex(res.amplitude.imag()) + " error '" + tel.error + "'");
        if (ok && !have_answer) answer = res.amplitude, have_answer = true;
        first.add(t2 - t0, factor);
        if (tracing) solve_traced.push_back(t2 - t1);
        else solve_plain.add(t2 - t1, factor);
        if (tracing) {
          ++traced;
          add_telemetry(r, tel);
          utilization += tel.runtime_stats.ema_utilization;
          if (!tel.shards.empty())
            r.metrics["dist.coord_overhead_s"] += (t2 - t1) - shard_wall_max(tel);
          add_cache_stats(r, sim.cache_stats());
          Scope probe(sp, "probe");
          probe_prepare(sp, r, circ, bits, opt.plan, opt.ldm_elems);
          auto other = bits;
          other[0] ^= 1;
          Scope s(sp, "api.prepare_like");
          if (!sim.prepare_like(plan, other, {}).valid())
            throw std::runtime_error("prepare_like returned an invalid plan");
        }
      } catch (const std::exception& e) {
        r.tally.check(false, std::string("exception: ") + e.what());
      }
    } while (now_seconds() - begin < a.seconds);
  }
  double log2_flops = 0;
  const Timing setup = measure_setup(circ, opt, bits, probe1, &log2_flops);
  put_times(r, setup, solve_plain, first, probe1, probe);
  r.metrics["sliced_log2_flops"] = log2_flops;
  if (a.trace) {
    if (traced == 0) throw std::runtime_error("no traced pass completed");
    auto& m = r.metrics;
    finish_telemetry(r, traced, utilization / traced);
    finish_span_metrics(r, rec, traced, 1);
    m["api.prepare_s"] = median(setup.wall);
    m["trace.overhead_s"] = median(solve_traced) - median(solve_plain.wall);
  }
  if (a.in.count("answer-out") && have_answer) write_file(a.in.at("answer-out"), amp_text(answer));
  stamp_env(r, elastic ? 1 : threads, elastic ? 4 : 1);
}

// Reference answers of a query file, one line per query id.
std::map<int, std::vector<double>> read_query_refs(const std::string& path) {
  std::map<int, std::vector<double>> out;
  for (const auto& line : split_lines(read_file(path))) {
    const auto w = split_ws(line);
    if (w.size() < 2) throw std::runtime_error("bad reference line");
    auto& v = out[std::atoi(w[0].c_str())];
    for (size_t i = 2; i < w.size(); ++i) v.push_back(std::strtod(w[i].c_str(), nullptr));
  }
  return out;
}

// Checks one pass's answers. Each sample stream must equal
// Simulator::sample_from_batch on the batch query with the same pattern
// (the query file pairs them; the engine answers both from one group).
void check_queries(const std::vector<query::Query>& qs,
                   const std::map<int, query::QueryResult>& got,
                   const std::map<int, std::vector<double>>& ref, int n, Tally& tally,
                   Recorder& rec) {
  std::map<std::string, const query::QueryResult*> batch_by_pattern;
  auto pattern = [](const query::Query& q) {
    std::string p;
    for (int b : q.bits) p += char('0' + b);
    for (int o : q.open_qubits) p[size_t(o)] = '?';
    return p;
  };
  for (const auto& q : qs) {
    auto it = got.find(q.id);
    if (q.kind == query::QueryKind::kBatch && it != got.end())
      batch_by_pattern[pattern(q)] = &it->second;
  }
  for (const auto& q : qs) {
    const std::string what = "query " + std::to_string(q.id) + " (" + q.text + ")";
    auto it = got.find(q.id);
    if (it == got.end() || !it->second.error.empty()) {
      tally.check(false, what + (it == got.end() ? ": no answer" : ": " + it->second.error));
      continue;
    }
    const auto& res = it->second;
    const auto rit = ref.find(q.id);
    const std::vector<double> none;
    const auto& want = rit == ref.end() ? none : rit->second;
    bool ok = true;
    switch (q.kind) {
      case query::QueryKind::kAmplitude:
      case query::QueryKind::kBatch: {
        ok = want.size() == 2 * res.amplitudes.size() && !res.amplitudes.empty();
        for (size_t k = 0; ok && k < res.amplitudes.size(); ++k)
          ok = amp_close(res.amplitudes[k], cd(want[2 * k], want[2 * k + 1]), n);
        break;
      }
      case query::QueryKind::kExpectation:
        ok = want.size() == 1 && std::abs(res.expectation - want[0]) <= kExpectTolerance;
        break;
      case query::QueryKind::kSample: {
        auto bt = batch_by_pattern.find(pattern(q));
        ok = bt != batch_by_pattern.end();
        if (!ok) break;
        api::BatchResult batch;
        batch.amplitudes = bt->second->amplitudes;
        batch.open_qubits = q.open_qubits;
        batch.completed = true;
        std::vector<uint64_t> picks;
        {
          Scope s(rec, "query.sample_from_batch");
          picks = api::Simulator::sample_from_batch(batch, q.num_samples, q.seed);
        }
        ok = picks.size() == res.samples.size();
        const size_t k = q.open_qubits.size();
        for (size_t i = 0; ok && i < picks.size(); ++i) {
          std::string full(q.bits.size(), '0');
          for (size_t b = 0; b < q.bits.size(); ++b) full[b] = char('0' + q.bits[b]);
          for (size_t j = 0; j < k; ++j)
            full[size_t(q.open_qubits[j])] = char('0' + ((picks[i] >> (k - 1 - j)) & 1));
          ok = full == res.samples[i];
        }
        break;
      }
    }
    tally.check(ok, what + ": answer outside tolerance");
  }
}

void run_query_mix(const RunArgs& a, Report& r, Recorder& rec) {
  const auto circ = circuit::circuit_from_string(read_file(a.need("circuit")));
  const std::string text = read_file(a.need("queries"));
  const auto ref = read_query_refs(a.need("ref"));
  api::SimulatorOptions opt;
  opt.plan.target_log2size = kAmpBoundLog2;
  const int threads = int(runtime::SliceScheduler::global().size());
  HostProbe probe(threads), probe1(1);

  Timing solve_plain, first;
  std::vector<double> solve_traced;
  std::vector<int> first_amp_bits;
  double utilization = 0;
  int traced = 0;
  for (int phase = 0; phase < (a.trace ? 2 : 1); ++phase) {
    const bool tracing = phase == 1;
    const double begin = now_seconds();
    do {
      const double factor = probe.factor(kProbesPerPass);
      rec.set_run(int(solve_plain.wall.size() + solve_traced.size()));
      Recorder quiet(false);
      Recorder& sp = tracing ? rec : quiet;
      Scope pass(sp, "pass");
      try {
        api::Simulator sim(circ, opt);
        query::Engine engine(sim, query::EngineOptions{});
        std::map<int, query::QueryResult> got;
        double t_first = -1;
        const double t0 = now_seconds();
        query::ParsedQueries parsed;
        {
          Scope s(sp, "query.parse");
          parsed = query::parse_queries(text, circ.num_qubits);
        }
        if (!parsed.ok()) throw std::runtime_error("query file rejected: " + parsed.error);
        query::EngineStats st;
        {
          Scope s(sp, "query.engine_run");
          st = engine.run(parsed.queries, [&](const query::QueryResult& q) {
            if (t_first < 0) t_first = now_seconds();
            got[q.id] = q;
          });
        }
        const double t1 = now_seconds();
        check_queries(parsed.queries, got, ref, circ.num_qubits, r.tally, sp);
        first.add((t_first < 0 ? t1 : t_first) - t0, factor);
        if (tracing) solve_traced.push_back(t1 - t0);
        else solve_plain.add(t1 - t0, factor);
        for (const auto& q : parsed.queries)
          if (first_amp_bits.empty() && q.kind == query::QueryKind::kAmplitude)
            first_amp_bits = q.bits;
        if (tracing) {
          ++traced;
          auto& m = r.metrics;
          m["query.groups"] = double(st.groups);
          m["query.contractions"] = double(st.contractions);
          m["query.planner_passes"] = double(st.planner_passes);
          m["query.plan_rebuilds"] = double(st.plan_rebuilds);
          add_cache_stats(r, sim.cache_stats());
          Scope probe(sp, "probe");
          probe_prepare(sp, r, circ, first_amp_bits, opt.plan, opt.ldm_elems);
          // The engine returns no RunTelemetry, so the exec/runtime/device
          // layers are read from the same contractions issued through the
          // API: one per distinct (bits, open set) of the file.
          api::Simulator replay(circ, opt);
          std::set<std::pair<std::vector<int>, std::vector<int>>> seen;
          double util_sum = 0;
          int util_n = 0;
          for (const auto& q : parsed.queries) {
            if (!seen.emplace(q.bits, q.open_qubits).second) continue;
            api::RunTelemetry tel;
            bool done = false;
            if (q.open_qubits.empty()) {
              auto res = replay.amplitude(q.bits);
              done = res.completed, tel = std::move(res.telemetry);
            } else {
              auto res = replay.batch_amplitudes(q.bits, q.open_qubits);
              done = res.completed, tel = std::move(res.telemetry);
            }
            r.tally.check(done && tel.error.empty(), "replay of query " + std::to_string(q.id));
            add_telemetry(r, tel);
            util_sum += tel.runtime_stats.ema_utilization;
            ++util_n;
          }
          utilization += util_n ? util_sum / util_n : 0;
          auto other = first_amp_bits;
          other[0] ^= 1;
          const auto rep = sim.prepare(first_amp_bits);
          Scope s(sp, "api.prepare_like");
          if (!sim.prepare_like(rep, other, {}).valid())
            throw std::runtime_error("prepare_like returned an invalid plan");
        }
      } catch (const std::exception& e) {
        r.tally.check(false, std::string("exception: ") + e.what());
      }
    } while (now_seconds() - begin < a.seconds);
  }
  if (first_amp_bits.empty()) throw std::runtime_error("query file has no amp query");
  // A pass takes long enough that its one time-to-first-answer is easily
  // disturbed, so more samples come from runs stopped at their first answer
  // (the engine streams each group as it completes: up to the first answer
  // a stopped run does exactly what a full one does).
  struct StopRun {};
  for (int i = 0; i < kFirstResultProbes; ++i) {
    const double factor = probe.factor(1);
    try {
      api::Simulator sim(circ, opt);
      query::Engine engine(sim, query::EngineOptions{});
      std::map<int, query::QueryResult> got;
      const double t0 = now_seconds();
      const auto parsed = query::parse_queries(text, circ.num_qubits);
      if (!parsed.ok()) throw std::runtime_error("query file rejected: " + parsed.error);
      try {
        engine.run(parsed.queries, [&](const query::QueryResult& q) {
          first.add(now_seconds() - t0, factor);
          got[q.id] = q;
          throw StopRun{};
        });
      } catch (const StopRun&) {
      }
      std::vector<query::Query> answered;
      for (const auto& q : parsed.queries)
        if (got.count(q.id)) answered.push_back(q);
      if (answered.empty()) throw std::runtime_error("no answer streamed");
      Recorder quiet(false);
      check_queries(answered, got, ref, circ.num_qubits, r.tally, quiet);
    } catch (const std::exception& e) {
      r.tally.check(false, std::string("exception: ") + e.what());
    }
  }
  double log2_flops = 0;
  const Timing setup = measure_setup(circ, opt, first_amp_bits, probe1, &log2_flops);
  put_times(r, setup, solve_plain, first, probe1, probe);
  r.metrics["sliced_log2_flops"] = log2_flops;
  if (a.trace) {
    if (traced == 0) throw std::runtime_error("no traced pass completed");
    auto& m = r.metrics;
    finish_telemetry(r, traced, utilization / traced);
    finish_span_metrics(r, rec, traced, 1);
    m["api.prepare_s"] = median(setup.wall);
    m["trace.overhead_s"] = median(solve_traced) - median(solve_plain.wall);
  }
  stamp_env(r, threads, 1);
}

// Plans every circuit of the set with default PlanOptions (2^30 bound);
// nothing is executed. The answer checked is the plan itself: it must fit
// the bound, re-evaluate to the metrics it reports, and repeat exactly.
void run_plan_sycamore(const RunArgs& a, Report& r, Recorder& rec) {
  std::vector<circuit::Circuit> circs;
  for (const auto& path : split_ws(a.need("circuits")))
    circs.push_back(circuit::circuit_from_string(read_file(path)));
  const auto bits = split_ws(read_file(a.need("bits")));
  if (bits.size() != circs.size()) throw std::runtime_error("one bitstring per circuit needed");
  const core::PlanOptions po;
  HostProbe probe(1);  // planning runs on the calling thread

  Timing setup, solve_plain, first;
  std::vector<double> solve_traced;
  std::vector<double> flops_first;  // per circuit, from the first pass
  int traced = 0;
  for (int phase = 0; phase < (a.trace ? 2 : 1); ++phase) {
    const bool tracing = phase == 1;
    const double begin = now_seconds();
    int passes = 0;
    while (passes < kMinPlanPasses || now_seconds() - begin < a.seconds) {
      ++passes;
      const double factor = probe.factor(kProbesPerPass);
      rec.set_run(int(setup.wall.size()));
      Recorder quiet(false);
      Recorder& sp = tracing ? rec : quiet;
      Scope pass(sp, "pass");
      double whole = 0, solve = 0, first_done = -1;
      const double t_pass = now_seconds();
      for (size_t i = 0; i < circs.size(); ++i) {
        try {
          const double t0 = now_seconds();
          circuit::LoweringOptions lo;
          lo.output_bits = parse_bits(bits[i], circs[i].num_qubits);
          circuit::LoweredNetwork ln;
          {
            Scope s(sp, "circuit.lower");
            ln = circuit::lower(circs[i], lo);
          }
          {
            Scope s(sp, "circuit.simplify");
            circuit::simplify(ln);
          }
          const double t1 = now_seconds();
          core::Plan plan;
          {
            Scope s(sp, "core.make_plan");
            plan = core::make_plan(ln.net, po);
          }
          const double t2 = now_seconds();
          const auto again = core::evaluate_slicing(*plan.tree, plan.slices);
          const double t3 = now_seconds();
          const double flops = plan.metrics.log2_total_cost;
          bool ok = plan.metrics.max_log2size <= po.target_log2size + 1e-9 &&
                    again.log2_total_cost == flops &&
                    again.max_log2size == plan.metrics.max_log2size &&
                    plan.metrics.log2_overhead >= 0;
          if (flops_first.size() < circs.size()) flops_first.push_back(flops);
          else ok = ok && flops_first[i] == flops;
          r.tally.check(ok, "plan of circuit " + std::to_string(i) + " failed its checks");
          whole += t2 - t0;
          solve += t3 - t1;
          if (first_done < 0) first_done = t3 - t_pass;
          if (tracing) {
            if (i == 0) ++traced;
            Scope probe(sp, "probe");
            path::PathResult pr;
            {
              Scope s(sp, "path.find_path");
              pr = path::find_path(ln.net, po.path);
            }
            {
              Scope s(sp, "exec.plan_fused");
              exec::plan_fused(plan.stem, plan.slices.to_vector(),
                               api::SimulatorOptions{}.ldm_elems);
            }
            auto& m = r.metrics;
            m["circuit.tensors"] += ln.net.num_alive_vertices();
            m["path.log2cost"] += pr.log2cost;
            m["path.log2size"] += pr.log2size;
            m["core.num_slices"] += plan.num_slices();
            m["core.slicing_overhead"] += plan.metrics.overhead();
            m["core.subtasks"] += plan.num_subtasks();
          }
        } catch (const std::exception& e) {
          r.tally.check(false, std::string("exception: ") + e.what());
        }
      }
      setup.add(whole, factor);
      first.add(first_done < 0 ? now_seconds() - t_pass : first_done, factor);
      if (tracing) solve_traced.push_back(solve);
      else solve_plain.add(solve, factor);
    }
  }
  put_times(r, setup, solve_plain, first, probe, probe);
  r.metrics["sliced_log2_flops"] = mean(flops_first);
  if (a.trace) {
    if (traced == 0) throw std::runtime_error("no traced pass completed");
    finish_span_metrics(r, rec, traced, int(circs.size()));
    // Per pass the set is planned once per circuit: report per-pass sums.
    for (const char* k : {"circuit.tensors", "core.num_slices", "core.subtasks"})
      r.metrics[k] *= double(circs.size());
    r.metrics["trace.overhead_s"] = median(solve_traced) - median(solve_plain.wall);
  }
  stamp_env(r, 1, 1);
}

int cmd_run(int argc, char** argv) {
  RunArgs a;
  a.workload = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) throw std::runtime_error("bad argument");
    a.in[argv[i] + 2] = argv[i + 1];
  }
  a.seconds = std::atof(a.need("seconds").c_str());
  a.trace = a.need("trace") == "1";
  Recorder rec(a.trace);
  Report r;
  if (a.workload == "amp_solo") run_amp(a, false, r, rec);
  else if (a.workload == "amp_elastic") run_amp(a, true, r, rec);
  else if (a.workload == "query_mix") run_query_mix(a, r, rec);
  else if (a.workload == "plan_sycamore") run_plan_sycamore(a, r, rec);
  else throw std::runtime_error("unknown workload " + a.workload);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.metrics["ok_ops_ratio"] =
      r.tally.attempted ? 1.0 - double(r.tally.failed) / double(r.tally.attempted) : 0;
  if (a.trace && a.in.count("spans-out")) {
    r.spans_file = a.in.at("spans-out");
    if (!rec.write_json(r.spans_file)) throw std::runtime_error("cannot write spans");
  }
  print_report(r, a.workload);
  return 0;
}

// ---------------------------------------------------------------------------
// Inputs and references.

int cmd_gen(int argc, char** argv) {
  circuit::RqcOptions rqc;
  circuit::Device dev;
  std::string out;
  if (argc == 8 && std::strcmp(argv[2], "grid") == 0) {
    dev = circuit::Device::grid(std::atoi(argv[3]), std::atoi(argv[4]));
    rqc.cycles = std::atoi(argv[5]);
    rqc.seed = std::strtoull(argv[6], nullptr, 10);
    out = argv[7];
  } else if (argc == 6 && std::strcmp(argv[2], "sycamore") == 0) {
    dev = circuit::Device::sycamore53();
    rqc.cycles = std::atoi(argv[3]);
    rqc.seed = std::strtoull(argv[4], nullptr, 10);
    out = argv[5];
  } else {
    return 64;
  }
  write_file(out, circuit::circuit_to_string(circuit::random_quantum_circuit(dev, rqc)));
  return 0;
}

int reference_threads() {
  return int(std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
}

// Reference answers for a query file, parsed here independently of
// src/query/ (the generator writes one whitespace-separated query a line).
std::string query_reference(const circuit::Circuit& c, const std::string& text) {
  const int n = c.num_qubits;
  const auto psi = perfbench::reference_state(c, reference_threads());
  // Amplitudes over `open` (first open qubit most significant) with the
  // other qubits at `pattern`'s fixed bits.
  auto amplitudes = [&](const std::string& pattern) {
    std::vector<int> bits(static_cast<size_t>(n)), open;
    for (int q = 0; q < n; ++q) {
      if (pattern[size_t(q)] == '?') open.push_back(q);
      else bits[size_t(q)] = pattern[size_t(q)] == '1';
    }
    std::vector<cd> v(size_t(1) << open.size());
    for (size_t k = 0; k < v.size(); ++k) {
      for (size_t j = 0; j < open.size(); ++j)
        bits[size_t(open[j])] = int((k >> (open.size() - 1 - j)) & 1);
      v[k] = psi[perfbench::basis_index(bits)];
    }
    return v;
  };
  std::ostringstream out;
  int id = 0;
  for (const auto& line : split_lines(text)) {
    const auto w = split_ws(line);
    ++id;
    out << id << ' ' << w[0];
    if (w[0] == "amp" || w[0] == "batch") {
      if (w.size() != 2 || int(w[1].size()) != n) throw std::runtime_error("bad query: " + line);
      for (cd a : amplitudes(w[1])) out << ' ' << hex(a.real()) << ' ' << hex(a.imag());
    } else if (w[0] == "expect") {
      if (w.size() != 3 || int(w[1].size()) != n) throw std::runtime_error("bad query: " + line);
      const std::string& paulis = w[1];
      std::string pattern = w[2];
      std::vector<int> support;
      for (int q = 0; q < n; ++q)
        if (paulis[size_t(q)] != 'I') pattern[size_t(q)] = '?', support.push_back(q);
      const auto v = amplitudes(pattern);
      // P v, one Pauli factor at a time.
      std::vector<cd> pv = v;
      for (size_t j = 0; j < support.size(); ++j) {
        const size_t m = size_t(1) << (support.size() - 1 - j);
        const char p = paulis[size_t(support[j])];
        cd mat[4] = {1, 0, 0, 1};
        if (p == 'X') mat[0] = 0, mat[1] = 1, mat[2] = 1, mat[3] = 0;
        if (p == 'Y') mat[0] = 0, mat[1] = cd(0, -1), mat[2] = cd(0, 1), mat[3] = 0;
        if (p == 'Z') mat[3] = -1;
        std::vector<cd> next(pv.size());
        for (size_t k = 0; k < pv.size(); ++k) {
          const size_t r = (k & m) ? 1 : 0, k0 = k & ~m;
          next[k] = mat[2 * r] * pv[k0] + mat[2 * r + 1] * pv[k0 | m];
        }
        pv = next;
      }
      cd num = 0;
      double den = 0;
      for (size_t k = 0; k < v.size(); ++k) num += std::conj(v[k]) * pv[k], den += std::norm(v[k]);
      out << ' ' << hex(num.real() / den);
    } else if (w[0] != "sample") {
      throw std::runtime_error("bad query: " + line);
    }
    out << '\n';
  }
  return out.str();
}

int cmd_reference(int argc, char** argv) {
  if (argc != 6) return 64;
  const auto circ = circuit::circuit_from_string(read_file(argv[3]));
  const std::string what = argv[2];
  if (what == "amp") {
    const auto bits = parse_bits(split_ws(read_file(argv[4])).at(0), circ.num_qubits);
    const auto psi = perfbench::reference_state(circ, reference_threads());
    write_file(argv[5], amp_text(psi[perfbench::basis_index(bits)]));
  } else if (what == "queries") {
    write_file(argv[5], query_reference(circ, read_file(argv[4])));
  } else {
    return 64;
  }
  return 0;
}

// The in-process amplitude amp_elastic must equal bit for bit.
int cmd_solo(int argc, char** argv) {
  if (argc != 5) return 64;
  const auto circ = circuit::circuit_from_string(read_file(argv[2]));
  const auto bits = parse_bits(split_ws(read_file(argv[3])).at(0), circ.num_qubits);
  api::Simulator sim(circ, amp_options(false));
  const auto res = sim.amplitude(bits);
  if (!res.completed || !res.telemetry.error.empty())
    throw std::runtime_error("solo amplitude failed: " + res.telemetry.error);
  write_file(argv[4], amp_text(res.amplitude));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: ltns_perfbench gen|reference|solo|run ...\n");
    return 64;
  }
  try {
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "reference") return cmd_reference(argc, argv);
    if (cmd == "solo") return cmd_solo(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
    std::fprintf(stderr, "unknown command %s\n", argv[1]);
    return 64;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ltns_perfbench: %s\n", e.what());
    return 1;
  }
}

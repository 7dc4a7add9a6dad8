// Fig. 11: strong scaling (65,536 subtasks total) and weak scaling (16
// subtasks per node) of the sliced contraction.
//
// Methodology matches the paper: subtasks are embarrassingly parallel with
// one trailing allReduce, so scaling is the subtask-count arithmetic plus
// the reduction term. The per-subtask work profile is MEASURED by running
// real sliced subtasks of a grid RQC through the fused executor (flops and
// DMA bytes counted), then pushed through the Sunway machine model.
// Shape to reproduce: near-linear strong scaling until subtasks/node ~ 1,
// flat weak scaling.
//
// The trailing section compares a static partition (plain std::threads, one
// contiguous chunk each — the model baseline) against the work-stealing
// SliceScheduler on a skewed per-subtask cost profile (the variance
// secondary slicing produces) — measured wall times, a machine-independent
// modeled makespan, and a bit-stability check of run_sliced's accumulated
// amplitudes on 1 vs 8 scheduler workers. Results are emitted as JSON
// (fig11_runtime.json) for the bench trajectory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "api/simulator.hpp"
#include "bench_common.hpp"
#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "exec/shard_runner.hpp"
#include "exec/slice_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/engine.hpp"
#include "query/query.hpp"
#include "runtime/slice_scheduler.hpp"
#include "sunway/cost_model.hpp"
#include "util/timer.hpp"

using namespace ltns;

namespace {

// Skewed per-subtask cost profile: one static shard's worth of subtasks is
// `skew`x heavier than the rest — the adversarial-but-realistic case where
// the costly secondary-sliced windows cluster in one contiguous task range.
std::vector<double> skewed_costs(uint64_t n, int workers, double skew) {
  std::vector<double> cost(n, 1.0);
  for (uint64_t t = 0; t < n / uint64_t(workers); ++t) cost[t] = skew;
  return cost;
}

// Modeled makespans (units of one light subtask), machine independent.
// Static: the slowest contiguous chunk. Stealing: greedy rebalancing is
// within a task of the lower bound max(total/P, heaviest task).
double modeled_static(const std::vector<double>& cost, int workers) {
  double worst = 0;
  const uint64_t n = cost.size();
  for (int w = 0; w < workers; ++w) {
    uint64_t b = n * uint64_t(w) / uint64_t(workers);
    uint64_t e = n * uint64_t(w + 1) / uint64_t(workers);
    double sum = 0;
    for (uint64_t t = b; t < e; ++t) sum += cost[t];
    worst = std::max(worst, sum);
  }
  return worst;
}

double modeled_stealing(const std::vector<double>& cost, int workers) {
  double total = 0, heaviest = 0;
  for (double c : cost) {
    total += c;
    heaviest = std::max(heaviest, c);
  }
  return std::max(total / workers, heaviest);
}

struct RuntimeRow {
  int workers = 0;
  double static_seconds = 0;
  double ws_seconds = 0;
  uint64_t stolen = 0;
  double modeled_static_units = 0;
  double modeled_ws_units = 0;
};

// Measured comparison: per-task cost emulated by sleeping cost[t] * quantum,
// so the number isolates *scheduling* quality from host core count.
RuntimeRow measure_skewed(uint64_t n, int workers, double skew, double quantum_ms) {
  RuntimeRow row;
  row.workers = workers;
  auto cost = skewed_costs(n, workers, skew);
  auto spin = [&](uint64_t t) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(int64_t(cost[t] * quantum_ms * 1000)));
  };

  // Static partition: one contiguous chunk per thread, no rebalancing.
  Timer ts;
  std::vector<std::thread> chunks;
  for (int w = 0; w < workers; ++w)
    chunks.emplace_back([&, w] {
      const uint64_t b = n * uint64_t(w) / uint64_t(workers);
      const uint64_t e = n * uint64_t(w + 1) / uint64_t(workers);
      for (uint64_t t = b; t < e; ++t) spin(t);
    });
  for (auto& th : chunks) th.join();
  row.static_seconds = ts.seconds();

  runtime::SliceScheduler sched(workers);
  auto begin = sched.stats().snapshot();
  Timer tw;
  sched.run(0, n, [&](int, uint64_t t) { spin(t); });
  row.ws_seconds = tw.seconds();
  row.stolen = sched.stats().snapshot().since(begin).stolen;

  row.modeled_static_units = modeled_static(cost, workers);
  row.modeled_ws_units = modeled_stealing(cost, workers);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 10;
  bench::header("Fig. 11", "strong and weak scaling of sliced contraction");
  auto inst = bench::grid_instance(3, 6, cycles);

  // Slice to ~2^16 subtasks like the paper's strong-scaling setup; measure
  // a handful of real subtasks for the work profile.
  core::SliceFinderOptions fo;
  fo.target_log2size = std::max(6.0, inst.tree->max_log2size() - 16);
  auto S = core::lifetime_slice_finder(inst.stem, fo);
  auto m = core::evaluate_slicing(*inst.tree, S);
  std::printf("plan: |S| = %d -> 2^%d subtasks, overhead %.3f, per-subtask 2^%.2f flops\n",
              S.size(), S.size(), m.overhead(), m.log2_cost_per_subtask);

  auto plan = exec::plan_fused(inst.stem, S.to_vector(), 32768);
  exec::FusedStats fs;
  const int probe = 4;
  for (uint64_t t = 0; t < probe; ++t) exec::execute_fused(plan, inst.leaves(), t, nullptr, &fs);

  sunway::SubtaskProfile prof;
  prof.flops = fs.exec.flops / probe;
  prof.dma_bytes = fs.dma.total_bytes() / probe;
  prof.dma_granularity = std::max(64.0, fs.dma.effective_granularity());
  prof.rma_bytes = fs.dma.rma_bytes / probe;
  std::printf("measured subtask: %.3g flops, %.3g DMA bytes (AI %.1f), granularity %.0f B\n",
              prof.flops, prof.dma_bytes, prof.arithmetic_intensity(),
              prof.dma_granularity);

  // The host-sized subtasks finish in microseconds on a CG; the paper's
  // Sycamore subtasks run for seconds. Scale the measured profile to the
  // paper's per-subtask work (keeping the measured arithmetic intensity and
  // granularity) so the scaling curves are probed in the same regime.
  const double paper_subtask_flops = std::exp2(45.0);
  const double scale = paper_subtask_flops / prof.flops;
  prof.flops *= scale;
  prof.dma_bytes *= scale;
  prof.rma_bytes *= scale;
  std::printf("scaled to paper-regime subtask: 2^45 flops at the measured AI\n\n");

  auto arch = sunway::ArchSpec::sw26010pro();

  std::printf("STRONG scaling: 65536 subtasks total (paper Fig. 11 top)\n");
  std::printf("%8s %14s %14s %12s\n", "nodes", "time (s)", "speedup", "efficiency");
  auto strong = sunway::strong_scaling(arch, prof, 65536,
                                       {16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
  double t0 = strong.front().seconds * strong.front().nodes;
  for (const auto& pt : strong)
    std::printf("%8d %14.4f %13.1fx %11.1f%%\n", pt.nodes, pt.seconds, t0 / pt.seconds / 16,
                100 * pt.parallel_efficiency);

  std::printf("\nWEAK scaling: 16 subtasks per node (paper Fig. 11 bottom)\n");
  std::printf("%8s %14s %12s\n", "nodes", "time (s)", "efficiency");
  auto weak = sunway::weak_scaling(arch, prof, 16, {1, 4, 16, 64, 256, 1024, 4096});
  for (const auto& pt : weak)
    std::printf("%8d %14.4f %11.1f%%\n", pt.nodes, pt.seconds, 100 * pt.parallel_efficiency);

  // Host-level sanity: oversubscribed scheduler strong scaling of real
  // subtasks (functional, not a throughput claim on 1 core).
  std::printf("\nhost check: %d real subtasks executed, results accumulated once (allReduce)\n",
              probe);

  // ---- static partition vs work stealing under skewed subtask costs ----
  std::printf("\nSTATIC vs WORK-STEALING under skewed slice costs (16x skew, one shard)\n");
  std::printf("%8s %12s %12s %10s %10s %12s %8s\n", "workers", "static (s)", "steal (s)",
              "speedup", "modeled", "model-strl", "stolen");
  const uint64_t n_skew = 256;
  const double skew = 16.0, quantum_ms = 1.0;
  std::vector<RuntimeRow> rows;
  for (int workers : {2, 4, 8, 16}) {
    auto row = measure_skewed(n_skew, workers, skew, quantum_ms);
    rows.push_back(row);
    std::printf("%8d %12.3f %12.3f %9.2fx %9.0fu %11.0fu %8llu\n", row.workers,
                row.static_seconds, row.ws_seconds, row.static_seconds / row.ws_seconds,
                row.modeled_static_units, row.modeled_ws_units,
                (unsigned long long)row.stolen);
  }

  // Real sliced contraction on 1 and 8 scheduler workers: the accumulated
  // tensor must be bitwise identical (tournament reduction), whatever the
  // timing and whoever ran which subtask.
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(4.0, inst.tree->max_log2size() - 6);
  auto S2 = core::greedy_slice(*inst.tree, go);
  runtime::SliceScheduler sched1(1);
  exec::SliceRunOptions w1;
  w1.scheduler = &sched1;
  auto rs = exec::run_sliced(*inst.tree, inst.leaves(), S2, w1);
  runtime::SliceScheduler sched8(8);
  exec::SliceRunOptions ws;
  ws.scheduler = &sched8;
  auto rw = exec::run_sliced(*inst.tree, inst.leaves(), S2, ws);
  const bool bit_stable =
      rs.accumulated.size() == rw.accumulated.size() &&
      std::memcmp(rs.accumulated.raw(), rw.accumulated.raw(),
                  rs.accumulated.size() * sizeof(exec::cfloat)) == 0;
  std::printf("\nreal run_sliced (2^%d subtasks): 1 worker %.3fs, 8 workers %.3fs, "
              "accumulated amplitudes bitwise %s\n",
              S2.size(), rs.wall_seconds, rw.wall_seconds, bit_stable ? "EQUAL" : "DIFFERENT");

  // Multi-process shard driver over the same slice range: 1 vs 4 worker
  // processes, merged in tournament order — the node-level layer on top of
  // the thread-level comparison above. Must stay bitwise identical too.
  exec::ShardRunOptions sh1;
  sh1.processes = 1;
  auto rp1 = exec::run_sharded(*inst.tree, inst.leaves(), S2, sh1);
  exec::ShardRunOptions sh4;
  sh4.processes = 4;
  auto rp4 = exec::run_sharded(*inst.tree, inst.leaves(), S2, sh4);
  const bool shard_stable =
      rp1.completed && rp4.completed && rp1.accumulated.size() == rw.accumulated.size() &&
      rp4.accumulated.size() == rw.accumulated.size() &&
      std::memcmp(rp1.accumulated.raw(), rw.accumulated.raw(),
                  rw.accumulated.size() * sizeof(exec::cfloat)) == 0 &&
      std::memcmp(rp4.accumulated.raw(), rw.accumulated.raw(),
                  rw.accumulated.size() * sizeof(exec::cfloat)) == 0;
  std::printf("multi-process run_sharded: 1 proc %.3fs, 4 procs %.3fs, vs in-process bitwise "
              "%s\n",
              rp1.wall_seconds, rp4.wall_seconds, shard_stable ? "EQUAL" : "DIFFERENT");

  // Elastic lease-based sharding over the same 4 processes: the artifact
  // tracks the rebalancing protocol's overhead vs the one-shot static
  // driver on every PR (same subtasks, same bitwise-identity bar).
  exec::ShardRunOptions she;
  she.processes = 4;
  she.elastic = true;
  auto rpe = exec::run_sharded(*inst.tree, inst.leaves(), S2, she);
  const bool elastic_stable =
      rpe.completed && rpe.accumulated.size() == rw.accumulated.size() &&
      std::memcmp(rpe.accumulated.raw(), rw.accumulated.raw(),
                  rw.accumulated.size() * sizeof(exec::cfloat)) == 0;
  std::printf("elastic run_sharded: 4 procs %.3fs (static %.3fs), %llu leases, %llu stolen, "
              "vs in-process bitwise %s\n",
              rpe.wall_seconds, rp4.wall_seconds,
              (unsigned long long)rpe.rebalance.leases_completed,
              (unsigned long long)rpe.rebalance.ranges_stolen,
              elastic_stable ? "EQUAL" : "DIFFERENT");

  // Observability artifacts (src/obs): rerun the elastic fleet with the
  // tracer armed and emit the merged Chrome trace + the unified metrics
  // snapshot. The traced amplitudes must stay bitwise identical to the
  // untraced run — tracing never touches the math — and that flag rides
  // the runtime JSON the CI bench-smoke job validates.
  obs::Tracer::instance().enable(-1);
  auto rpt = exec::run_sharded(*inst.tree, inst.leaves(), S2, she);
  obs::Tracer::instance().disable();
  const bool traced_stable =
      rpt.completed && rpt.accumulated.size() == rw.accumulated.size() &&
      std::memcmp(rpt.accumulated.raw(), rw.accumulated.raw(),
                  rw.accumulated.size() * sizeof(exec::cfloat)) == 0;
  const uint64_t trace_events = obs::Tracer::instance().events_recorded();
  std::string obs_err;
  if (!obs::Tracer::instance().write_chrome_json("fig11_trace.json", &obs_err))
    std::printf("fig11_trace.json FAILED: %s\n", obs_err.c_str());
  obs::MetricsRegistry reg;
  obs::fill_run_metrics(reg, rpt.executor_stats, rpt.memory, rpt.rebalance, rpt.tasks_run,
                        rpt.reduce_merges, rpt.wall_seconds);
  if (!reg.write_files("fig11_metrics.json", &obs_err))
    std::printf("fig11_metrics.json FAILED: %s\n", obs_err.c_str());
  std::printf("observability: traced elastic rerun bitwise %s, %llu events -> fig11_trace.json, "
              "%zu metrics -> fig11_metrics.json\n",
              traced_stable ? "EQUAL" : "DIFFERENT", (unsigned long long)trace_events,
              reg.metrics().size());

  // ---- batched query engine throughput (src/query) ----
  // 64 amp queries over 32 distinct bitstrings against one circuit:
  // answered one `amp` run at a time (the pre-engine workflow, replanning
  // every query), then through the grouped engine (one open-batch
  // contraction covers all of them) cold, then warm (same Simulator, plans
  // served from the in-memory plan cache; the result cache is disabled so
  // the warm number still measures contraction, not lookup).
  std::printf("\nQUERY ENGINE throughput: 64 amp queries, 32 distinct bitstrings\n");
  const auto qcirc =
      circuit::random_quantum_circuit(circuit::Device::grid(3, 3), [] {
        circuit::RqcOptions o;
        o.cycles = 8;
        o.seed = 2019;
        return o;
      }());
  std::string qtext;
  for (int i = 0; i < 64; ++i) {
    std::string bits(size_t(qcirc.num_qubits), '0');
    for (int j = 0; j < 5; ++j)
      if (((i % 32) >> j) & 1) bits[size_t(2 * j)] = '1';  // vary qubits {0,2,4,6,8}
    qtext += "amp " + bits + "\n";
  }
  auto qp = query::parse_queries(qtext, qcirc.num_qubits);
  const size_t n_queries = qp.queries.size();

  api::SimulatorOptions qo;
  qo.plan.target_log2size = 12;
  qo.cache.plan_cache_entries = 0;  // the baseline replans every query
  qo.cache.result_cache_entries = 0;
  Timer ti;
  {
    api::Simulator qsim(qcirc, qo);
    for (const auto& q : qp.queries) qsim.amplitude(qsim.prepare(q.bits));
  }
  const double individual_seconds = ti.seconds();

  qo.cache.plan_cache_entries = 32;  // engine runs: warm leg reuses plans
  api::Simulator qsim(qcirc, qo);
  query::EngineOptions eo;
  eo.group_amplitudes = true;
  eo.max_open = 6;
  Timer tc;
  query::Engine cold(qsim, eo);
  const auto qs_cold = cold.run(qp.queries, [](const query::QueryResult&) {});
  const double grouped_cold_seconds = tc.seconds();
  Timer tw2;
  query::Engine warm(qsim, eo);
  const auto qs_warm = warm.run(qp.queries, [](const query::QueryResult&) {});
  const double grouped_warm_seconds = tw2.seconds();
  std::printf("individual: %.3fs (%.0f amps/s); grouped cold: %.3fs (%.0f amps/s, "
              "%llu groups, %llu contractions); grouped warm: %.3fs (%.0f amps/s, "
              "%llu planner passes)\n",
              individual_seconds, n_queries / individual_seconds, grouped_cold_seconds,
              n_queries / grouped_cold_seconds, (unsigned long long)qs_cold.groups,
              (unsigned long long)qs_cold.contractions, grouped_warm_seconds,
              n_queries / grouped_warm_seconds, (unsigned long long)qs_warm.planner_passes);

  // JSON for the bench trajectory.
  std::ofstream json("fig11_runtime.json");
  json << "{\n  \"skew\": " << skew << ",\n  \"tasks\": " << n_skew << ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    json << "    {\"workers\": " << r.workers << ", \"static_seconds\": " << r.static_seconds
         << ", \"ws_seconds\": " << r.ws_seconds
         << ", \"speedup\": " << r.static_seconds / r.ws_seconds
         << ", \"modeled_static_units\": " << r.modeled_static_units
         << ", \"modeled_ws_units\": " << r.modeled_ws_units << ", \"stolen\": " << r.stolen
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"real_run\": {\"subtasks\": " << (uint64_t(1) << S2.size())
       << ", \"w1_seconds\": " << rs.wall_seconds
       << ", \"w8_seconds\": " << rw.wall_seconds << ", \"bit_stable\": " << std::boolalpha
       << bit_stable << "},\n  \"sharded\": {\"subtasks\": " << (uint64_t(1) << S2.size())
       << ", \"p1_seconds\": " << rp1.wall_seconds << ", \"p4_seconds\": " << rp4.wall_seconds
       << ", \"bit_stable\": " << std::boolalpha << shard_stable
       << "},\n  \"elastic\": {\"subtasks\": " << (uint64_t(1) << S2.size())
       << ", \"static_p4_seconds\": " << rp4.wall_seconds
       << ", \"elastic_p4_seconds\": " << rpe.wall_seconds
       << ", \"leases\": " << rpe.rebalance.leases_completed
       << ", \"ranges_stolen\": " << rpe.rebalance.ranges_stolen
       << ", \"bit_stable\": " << std::boolalpha << elastic_stable
       << "},\n  \"observability\": {\"traced_bit_stable\": " << std::boolalpha << traced_stable
       << ", \"trace_events\": " << trace_events
       << ", \"metrics\": " << reg.metrics().size()
       << "},\n  \"query_throughput\": {\"queries\": " << n_queries
       << ", \"individual_seconds\": " << individual_seconds
       << ", \"individual_amps_per_sec\": " << n_queries / individual_seconds
       << ", \"grouped_cold_seconds\": " << grouped_cold_seconds
       << ", \"grouped_cold_amps_per_sec\": " << n_queries / grouped_cold_seconds
       << ", \"grouped_warm_seconds\": " << grouped_warm_seconds
       << ", \"grouped_warm_amps_per_sec\": " << n_queries / grouped_warm_seconds
       << ", \"groups\": " << qs_cold.groups << ", \"contractions\": " << qs_cold.contractions
       << ", \"warm_planner_passes\": " << qs_warm.planner_passes
       << ", \"speedup_vs_individual\": " << individual_seconds / grouped_cold_seconds
       << "}\n}\n";
  std::printf("wrote fig11_runtime.json\n");
  const bool query_ok =
      qs_cold.errors == 0 && qs_warm.errors == 0 && qs_cold.contractions < n_queries;
  return bit_stable && shard_stable && elastic_stable && traced_stable && query_ok ? 0 : 1;
}

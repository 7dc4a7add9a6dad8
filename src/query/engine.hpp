// The batched query engine: answers a heterogeneous query set against ONE
// circuit through shared contractions.
//
//   parse (query.hpp) -> group (grouper.hpp) -> per group: resolve a plan
//   (each open-set signature plans once — possibly via the plan cache —
//   and is kept as a compact api::PlanTemplate; every other group of the
//   signature REBUILDS the template over its own lowered network, planner
//   never re-invoked) -> contract through api::Simulator (solo, multi-process or
//   elastic, per its options) -> evaluate members (eval.hpp) -> stream
//   results in deterministic order.
//
// The first group plans on the engine thread and streams its answers;
// then the first group of every other signature plans in ONE parallel
// SliceScheduler run (options().scheduler, else the global one), skipping
// signatures whose groups all have a covering batch. make_plan is
// deterministic, so a plan is the same whichever thread builds it.
//
// Determinism contract (docs/queries.md): closed groups answer amplitude
// queries with the byte-exact result of a standalone `amp` run; open-group
// amplitudes are byte-stable across process counts and transports but
// carry batch-contraction rounding ("grouped" amp mode is opt-in).
#pragma once

#include <functional>
#include <map>
#include <string>

#include "api/simulator.hpp"
#include "query/grouper.hpp"
#include "query/query.hpp"

namespace ltns::query {

struct EngineOptions {
  int max_open = 6;              // grouper merge bound
  bool group_amplitudes = false; // opt-in "grouped" amp mode (see grouper.hpp)
};

// Counters of one engine run, exported as the ltns_query_* metric series
// (obs::fill_query_metrics). The acceptance invariant "a grouped query
// file executes in fewer contractions than queries" is provable from
// `contractions` vs `queries` alone.
struct EngineStats {
  uint64_t queries = 0;
  uint64_t amp_queries = 0, batch_queries = 0, sample_queries = 0, expect_queries = 0;
  uint64_t groups = 0, closed_groups = 0, open_groups = 0;
  uint64_t contractions = 0;       // contractions actually executed
  uint64_t planner_passes = 0;     // plans resolved by running src/path/
  uint64_t plan_cache_hits = 0;    // plans served by the persistent cache
  uint64_t plan_rebuilds = 0;      // plans rebuilt from a same-signature rep
  uint64_t result_cache_hits = 0;  // groups answered by exact result entries
  uint64_t superset_hits = 0;      // groups sliced out of covering batches
  uint64_t amplitudes_returned = 0;
  uint64_t samples_drawn = 0;
  uint64_t errors = 0;             // member results carrying an error
  // Wall time the engine thread spent resolving plans (the parallel
  // planning step counts once, not per plan) and contracting, so
  // plan_seconds + exec_seconds never exceeds the run's wall time.
  double plan_seconds = 0;
  double exec_seconds = 0;
};

using ResultSink = std::function<void(const QueryResult&)>;

class Engine {
 public:
  Engine(const api::Simulator& sim, EngineOptions opt) : sim_(sim), opt_(opt) {}

  // Executes every query, streaming each answer to `sink` as its group
  // completes (groups in first-member order, members ascending — the
  // output order is a pure function of the query file).
  EngineStats run(const std::vector<Query>& queries, const ResultSink& sink);

 private:
  // Plans, in one scheduler run, the first group of every signature in
  // groups[1..] that is not in `known` and has a group no covering batch
  // answers. Returns the valid templates by signature.
  std::map<std::string, api::PlanTemplate> plan_ahead(
      const std::vector<GroupSpec>& groups,
      const std::map<std::string, api::PlanTemplate>& known) const;

  const api::Simulator& sim_;
  EngineOptions opt_;
};

}  // namespace ltns::query

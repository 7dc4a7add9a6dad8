#include "query/engine.hpp"

#include <map>
#include <set>

#include "cache/cache.hpp"
#include "obs/trace.hpp"
#include "query/eval.hpp"
#include "runtime/slice_scheduler.hpp"
#include "util/timer.hpp"

namespace ltns::query {

namespace {

std::string open_signature(const std::vector<int>& open) {
  std::string s;
  for (int q : open) s += std::to_string(q) + ",";
  return s;
}

// Groups whose covering-batch probe runs before any plan: open groups, and
// closed ones in grouped amp mode (in exact mode a sliced-out amplitude
// would break the standalone-`amp` byte contract).
bool probes_batches(const GroupSpec& g, const EngineOptions& opt) {
  return !g.open_qubits.empty() || opt.group_amplitudes;
}

}  // namespace

std::map<std::string, api::PlanTemplate> Engine::plan_ahead(
    const std::vector<GroupSpec>& groups,
    const std::map<std::string, api::PlanTemplate>& known) const {
  // The first group that will need a plan, per signature not yet planned.
  // A group answered by a covering batch needs none: the same index probe
  // the loop makes, asked without reading or counting anything.
  std::map<std::string, const GroupSpec*> todo;
  for (size_t gi = 1; gi < groups.size(); ++gi) {
    const GroupSpec& g = groups[gi];
    const std::string sig = open_signature(g.open_qubits);
    if (known.count(sig) != 0 || todo.count(sig) != 0) continue;
    if (probes_batches(g, opt_) && sim_.find_covering_batch(g.base_bits, g.open_qubits, nullptr))
      continue;
    todo.emplace(sig, &g);
  }
  std::map<std::string, api::PlanTemplate> out;
  if (todo.empty()) return out;
  std::vector<std::pair<std::string, const GroupSpec*>> jobs(todo.begin(), todo.end());
  std::vector<api::PlanTemplate> tpls(jobs.size());
  runtime::SliceScheduler& sched = sim_.options().scheduler != nullptr
                                       ? *sim_.options().scheduler
                                       : runtime::SliceScheduler::global();
  runtime::ExecutorStats sink;  // keep planning out of the scheduler's slice-task counters
  sched.run(
      0, jobs.size(),
      [&](int, uint64_t i) {
        const GroupSpec& g = *jobs[i].second;
        // A task must not throw (the scheduler would terminate). A failure
        // leaves the template invalid; the group then plans on the engine
        // thread, which raises the same error at the same group as before.
        try {
          tpls[i] = sim_.prepare(g.base_bits, g.open_qubits).plan_template();
        } catch (...) {
        }
      },
      /*grain=*/1, &sink);
  for (size_t i = 0; i < jobs.size(); ++i)
    if (tpls[i].valid()) out.emplace(jobs[i].first, std::move(tpls[i]));
  return out;
}

EngineStats Engine::run(const std::vector<Query>& queries, const ResultSink& sink) {
  EngineStats st;
  st.queries = queries.size();
  for (const Query& q : queries) {
    switch (q.kind) {
      case QueryKind::kAmplitude: ++st.amp_queries; break;
      case QueryKind::kBatch: ++st.batch_queries; break;
      case QueryKind::kSample: ++st.sample_queries; break;
      case QueryKind::kExpectation: ++st.expect_queries; break;
    }
  }

  GrouperOptions go;
  go.max_open = opt_.max_open;
  go.group_amplitudes = opt_.group_amplitudes;
  const auto groups = group_queries(queries, go);
  st.groups = groups.size();

  // One plan template per open-set SIGNATURE: the planner is value-blind
  // (the lowered structure is identical across output bit values at the
  // same positions), so every group rebuilds its signature's template over
  // its own network instead of re-planning. `ahead` holds the signatures
  // planned ahead whose template no group has used yet: the first use is
  // counted as the plan it stands for, later ones as rebuilds.
  std::map<std::string, api::PlanTemplate> templates;
  std::set<std::string> ahead;
  auto count_plan = [&st](bool from_cache) {
    from_cache ? ++st.plan_cache_hits : ++st.planner_passes;
  };

  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const GroupSpec& g = groups[gi];
    const bool closed = g.open_qubits.empty();

    // Once the first group has streamed its answers, plan the first group
    // of every other signature in one parallel scheduler run. Not before:
    // the first answer would then wait behind the helper threads' start.
    if (gi == 1) {
      Timer t;
      for (auto& [sig, tpl] : plan_ahead(groups, templates)) {
        ahead.insert(sig);
        templates.emplace(sig, std::move(tpl));
      }
      st.plan_seconds += t.seconds();
    }

    closed ? ++st.closed_groups : ++st.open_groups;
    obs::TraceScope span(obs::EventKind::kQueryGroup, gi, g.open_qubits.size(),
                         g.members.size());

    std::vector<std::complex<double>> amps;
    std::string err;
    bool served = false;

    // Covering-batch probe: a cached batch whose open set is a superset of
    // this group's answers it with zero contractions.
    if (probes_batches(g, opt_)) {
      cache::BatchEntry e;
      if (sim_.find_covering_batch(g.base_bits, g.open_qubits, &e)) {
        amps = restrict_amplitudes(e.amplitudes, e.open_qubits, g.open_qubits, g.base_bits);
        e.open_qubits == g.open_qubits ? ++st.result_cache_hits : ++st.superset_hits;
        served = true;
      }
    }

    if (!served) {
      Timer pt;
      const std::string sig = open_signature(g.open_qubits);
      const auto it = templates.find(sig);
      const bool first_use = ahead.erase(sig) != 0;
      api::PreparedPlan plan;
      if (it != templates.end()) plan = sim_.prepare_like(it->second, g.base_bits, g.open_qubits);
      if (plan.valid() && first_use) {
        count_plan(it->second.from_cache);
      } else if (plan.valid()) {
        ++st.plan_rebuilds;
      } else {
        plan = sim_.prepare(g.base_bits, g.open_qubits);
        count_plan(plan.plan_from_cache());
        if (it == templates.end()) templates.emplace(sig, plan.plan_template());
      }
      st.plan_seconds += pt.seconds();

      Timer t;
      if (closed) {
        auto ar = sim_.amplitude(plan);
        err = ar.telemetry.error;
        if (err.empty() && !ar.completed) err = "run cancelled";
        ar.from_cache ? ++st.result_cache_hits : ++st.contractions;
        amps.assign(1, ar.amplitude);
      } else {
        auto br = sim_.batch_amplitudes(plan);
        err = br.telemetry.error;
        if (err.empty() && !br.completed) err = "run cancelled";
        br.from_cache ? ++st.result_cache_hits : ++st.contractions;
        amps = std::move(br.amplitudes);
      }
      st.exec_seconds += t.seconds();
    }

    for (int m : g.members) {
      const Query& q = queries[size_t(m)];
      QueryResult r;
      if (err.empty()) {
        r = evaluate_query(q, g.open_qubits, amps);
      } else {
        r.kind = q.kind;
        r.id = q.id;
        r.text = q.text;
        r.error = err;
      }
      if (!r.error.empty()) ++st.errors;
      st.amplitudes_returned += r.amplitudes.size();
      st.samples_drawn += r.samples.size();
      sink(r);
    }
  }
  return st;
}

}  // namespace ltns::query

// Planner: the end-to-end planning pipeline of the paper.
//
//   network --(path optimizer)--> contraction tree
//           --(stem extraction)--> stem
//           --(Algorithm 1 slice finder)--> small slicing set
//           --(Algorithm 2 SA refiner)--> low-overhead slicing set
//
// Optionally plans with the greedy baseline slicer instead (for the Fig. 10
// comparison) and picks whichever satisfies the bound with lower overhead.
#pragma once

#include <memory>
#include <string>

#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "core/slicing.hpp"
#include "path/optimizer.hpp"
#include "tn/stem.hpp"

namespace ltns::core {

enum class SlicerKind { kLifetime, kLifetimeRefined, kGreedyBaseline };

struct PlanOptions {
  path::OptimizerOptions path;
  double target_log2size = 30;
  SlicerKind slicer = SlicerKind::kLifetimeRefined;
  SliceRefinerOptions refiner;
  uint64_t seed = 99;
};

struct Plan {
  tn::SsaPath path;
  // Held behind a stable pointer: `stem` (and any fused plans built on it)
  // reference the tree by address, so Plan stays safely movable/copyable.
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;
  SliceSet slices;
  SlicedMetrics metrics;
  std::string path_method;
  // How this make_plan ran: Algorithm 2's counters (kLifetimeRefined only)
  // and the wall time of the path search and of the slicing stage. All
  // zero for a plan restored from the cache.
  RefineStats refine;
  double path_seconds = 0, slice_seconds = 0;

  int num_slices() const { return slices.size(); }
  double num_subtasks() const { return std::exp2(metrics.log2_num_subtasks); }
};

Plan make_plan(const tn::TensorNetwork& net, const PlanOptions& opt);

// Canonical text of EVERY plan knob (including the nested optimizer and
// refiner options), for content-addressed fingerprinting: two PlanOptions
// with equal text produce identical plans (make_plan is deterministic),
// and any knob change — which may change the resolved plan — changes the
// text. New fields MUST be appended here or the cache would serve stale
// plans across the change.
std::string plan_options_text(const PlanOptions& opt);

}  // namespace ltns::core

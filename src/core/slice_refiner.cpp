#include "core/slice_refiner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.hpp"

namespace ltns::core {
namespace {

// Stem positions in the lifetime of `e` whose sliced tensor is exactly at
// the target rank — the paper's find_critical_tensors.
std::vector<int> find_critical_tensors(const tn::Stem& stem, const StemLifetimes& lt,
                                       const IncrementalSlicing& st, double target, EdgeId e) {
  std::vector<int> crit;
  const auto& iv = lt.of(e);
  for (int p = iv.begin; p <= iv.end; ++p) {
    double sz = st.node_log2size(stem.nodes[size_t(p)]);
    if (std::abs(sz - target) < 1e-9) crit.push_back(p);
  }
  return crit;
}

// Unsliced stem edges whose lifetime covers every critical position — the
// paper's find_candidate_indices.
std::vector<EdgeId> find_candidate_indices(const tn::Stem& stem, const StemLifetimes& lt,
                                           const IndexSet& S, const std::vector<int>& crit,
                                           EdgeId skip) {
  std::vector<EdgeId> out;
  if (crit.empty()) return out;
  // Any covering edge must be an index of the first critical tensor; scan
  // those instead of the whole edge universe.
  const auto& first_ixs = stem.tree->node(stem.nodes[size_t(crit.front())]).ixs;
  const auto& net = *stem.tree->network();
  first_ixs.for_each([&](int e) {
    // Never swap an open (output) edge in: the runners only merge additively
    // over closed edges, so open edges must survive to the root un-sliced.
    if (e == skip || S.contains(e) || net.edge(EdgeId(e)).b == tn::kNone) return;
    const auto& iv = lt.of(e);
    bool covers = true;
    for (int p : crit)
      if (!iv.contains(p)) {
        covers = false;
        break;
      }
    if (covers) out.push_back(EdgeId(e));
  });
  return out;
}

}  // namespace

SliceSet refine_slices(const tn::Stem& stem, SliceSet S, const SliceRefinerOptions& opt,
                       RefineStats* stats_out) {
  const tn::ContractionTree& tree = *stem.tree;
  RefineStats stats;
  if (S.size() == 0) {
    // Nothing to swap or drop: return before building any state.
    stats.initial_log2cost = stats.final_log2cost = evaluate_slicing(tree, S).log2_total_cost;
    if (stats_out) *stats_out = stats;
    return S;
  }
  auto lt = StemLifetimes::build(stem);
  Rng rng(opt.seed);
  IncrementalSlicing st(tree, std::move(S), opt.target_log2size);

  double cur_cost = st.log2_total_cost();
  stats.initial_log2cost = cur_cost;
  SliceSet best = st.slices();
  double best_cost = cur_cost;

  for (double T = opt.initial_temperature; T > opt.final_temperature; T *= opt.alpha) {
    for (int k = 0; k < opt.moves_per_temperature; ++k) {
      auto sliced = st.slices().to_vector();
      if (sliced.empty()) break;
      EdgeId a = sliced[rng.next_below(sliced.size())];

      auto crit = find_critical_tensors(stem, lt, st, opt.target_log2size, a);
      if (crit.empty()) {
        // `a` shields no critical tensor; if the whole tree stays within
        // bound without it, it is pure overhead — drop it.
        st.propose(a);
        if (st.fits()) {
          st.commit();
          ++stats.dropped_useless;
          cur_cost = st.log2_total_cost();
          if (cur_cost < best_cost) {
            best = st.slices();
            best_cost = cur_cost;
          }
        } else {
          st.reject();  // needed by a branch tensor after all
        }
        continue;
      }

      for (EdgeId b : find_candidate_indices(stem, lt, st.slices().edges(), crit, a)) {
        ++stats.proposed;
        st.propose(a, b);
        const double new_cost = st.log2_total_cost();
        // Sliced sizes are never negative, so "every node fits" is
        // evaluate_slicing's max_log2size (which starts at 0) <= target.
        bool take = false;
        if (st.fits()) {
          if (new_cost < cur_cost) {
            take = true;
          } else {
            // exp((C_ori − C_new)/C_ori / T) with huge C handled via the
            // linear-domain ratio 2^(Δlog2).
            double ratio = std::exp2(new_cost - cur_cost);
            double p = std::exp((1.0 - ratio) / T);
            if (rng.next_double() < p) {
              take = true;
              ++stats.uphill_accepted;
            }
          }
        }
        if (take) {
          st.commit();
          ++stats.accepted;
          cur_cost = new_cost;
          if (cur_cost < best_cost) {
            best = st.slices();
            best_cost = cur_cost;
          }
          a = b;  // the sliced edge under consideration is now b
        } else {
          st.reject();
        }
      }
    }
  }

  stats.final_log2cost = best_cost;
  if (stats_out) *stats_out = stats;
  return best;
}

}  // namespace ltns::core

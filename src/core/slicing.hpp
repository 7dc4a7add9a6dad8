// Slicing cost model: Eq. 2 (overhead) and Eq. 4 (sliced total cost).
//
// Slicing a set S of edges fixes those indices, splitting the contraction
// into Π_{e∈S} 2^{log2w(e)} independent subtasks. Inside one subtask, a
// contraction whose union index set meets S gets cheaper by the weight of
// the met indices; contractions untouched by S are recomputed identically in
// every subtask — that recomputation is the *slicing overhead*.
#pragma once

#include <string>
#include <vector>

#include "tn/contraction_tree.hpp"
#include "util/index_set.hpp"
#include "util/log2math.hpp"

namespace ltns::core {

using tn::ContractionTree;
using tn::EdgeId;
using tn::TensorNetwork;

struct SlicedMetrics {
  double log2_num_subtasks = 0;      // Σ log2w over S
  double log2_cost_per_subtask = 0;  // C_slice(B) of Eq. 2, log2
  double log2_total_cost = 0;        // per-subtask × subtasks, log2
  double log2_overhead = 0;          // Eq. 2, log2 (0 ⇒ no overhead)
  double max_log2size = 0;           // biggest sliced intermediate
  double max_union_log2size = 0;     // biggest sliced contraction scope
  double overhead() const { return std::exp2(log2_overhead); }
};

class SliceSet {
 public:
  SliceSet() = default;  // empty shell; assign a real one before use
  explicit SliceSet(const TensorNetwork& net) : net_(&net), set_(net.num_edges()) {}

  const IndexSet& edges() const { return set_; }
  int size() const { return set_.count(); }
  bool contains(EdgeId e) const { return set_.contains(e); }
  void add(EdgeId e);
  void remove(EdgeId e);
  std::vector<EdgeId> to_vector() const { return set_.to_vector(); }
  // Σ log2w over the sliced edges == log2 of the subtask count.
  double log2_num_subtasks() const { return log2w_; }

 private:
  const TensorNetwork* net_ = nullptr;
  IndexSet set_;
  double log2w_ = 0;
};

// Evaluates Eq. 2 / Eq. 4 for `slices` over the whole tree.
SlicedMetrics evaluate_slicing(const ContractionTree& tree, const SliceSet& slices);

// Eq. 4 of a slicing set that changes one edge at a time, for the SA
// refiner's neighbourhood. Keeps every node's sliced size and cost, the
// nodes holding each edge, the count of nodes over the bound, and the
// prefix chain of the Eq. 4 fold in tree.nodes() order. A proposal
// re-costs only the nodes holding the swapped edges, with the expressions
// evaluate_slicing uses, and refolds from the first internal node whose
// term changed. The fold is the same chain of log2_add calls over the same
// terms in the same order, so every value equals the oracle's bit for bit.
class IncrementalSlicing {
 public:
  IncrementalSlicing(const ContractionTree& tree, SliceSet slices, double target_log2size);

  const SliceSet& slices() const { return S_; }
  // evaluate_slicing(tree, slices()).log2_total_cost, bit for bit.
  double log2_total_cost() const { return prefix_.back() + S_.log2_num_subtasks(); }
  // satisfies_memory_bound(tree, slices(), target_log2size).
  bool fits() const { return over_ == 0; }
  // sliced_node_log2size(tree, node, slices().edges()), bit for bit.
  double node_log2size(int node) const { return size_[size_t(node)]; }

  // Unslices `a` and slices `b` (tn::kNone: only unslices `a`), in that
  // order, then re-costs the nodes holding either edge. The accessors
  // describe the proposed set until commit() keeps it or reject() slices
  // `a` back (removing `b` first) and restores the previous values.
  void propose(EdgeId a, EdgeId b = tn::kNone);
  void commit();
  void reject();

 private:
  struct Undo {
    int node;
    double size, term;
  };
  bool over(double log2size) const { return log2size > target_ + 1e-9; }

  const ContractionTree* tree_;
  double target_;
  SliceSet S_;
  std::vector<double> size_;   // per node
  std::vector<int> term_of_;   // per node: its position in the fold, -1 for leaves
  std::vector<double> term_;   // per internal node, in tree.nodes() order
  std::vector<double> prefix_; // prefix_[k] = fold of term_[0, k)
  std::vector<int> edge_begin_, edge_nodes_;  // nodes holding each edge (CSR)
  int over_ = 0;
  // The pending proposal, kept to undo it.
  EdgeId a_ = tn::kNone, b_ = tn::kNone;
  bool pending_ = false;
  int over_before_ = 0;
  size_t refold_from_ = 0;
  std::vector<int> touched_;
  std::vector<Undo> undo_;
  std::vector<double> prefix_before_;
};

// Sliced log2 size of one tree node's output tensor.
double sliced_node_log2size(const ContractionTree& tree, int node, const IndexSet& slices);

// True iff every intermediate tensor fits 2^target_log2size after slicing.
bool satisfies_memory_bound(const ContractionTree& tree, const SliceSet& slices,
                            double target_log2size);

// Brute-force reference used by tests: enumerates all subtask assignments of
// the (unit-weight) sliced edges and sums per-subtask costs directly.
// Exponential in |S|; keep |S| small.
double brute_force_sliced_log2cost(const ContractionTree& tree, const SliceSet& slices);

}  // namespace ltns::core

#include "core/slicing.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <utility>

namespace ltns::core {

void SliceSet::add(EdgeId e) {
  assert(!set_.contains(e));
  set_.insert(e);
  log2w_ += net_->edge(e).log2w;
}

void SliceSet::remove(EdgeId e) {
  assert(set_.contains(e));
  set_.erase(e);
  log2w_ -= net_->edge(e).log2w;
}

SlicedMetrics evaluate_slicing(const ContractionTree& tree, const SliceSet& slices) {
  const TensorNetwork& net = *tree.network();
  const IndexSet& S = slices.edges();
  SlicedMetrics m;
  m.log2_num_subtasks = slices.log2_num_subtasks();

  Log2Accumulator per_subtask;
  for (const auto& n : tree.nodes()) {
    double sz = n.log2size - tn::log2w_intersection(net, n.ixs, S);
    m.max_log2size = std::max(m.max_log2size, sz);
    if (n.is_leaf()) continue;
    // Sliced indices inside s_l ∪ s_r are fixed within a subtask: the
    // contraction loses exactly their weight (Eq. 4 term).
    double c = n.log2cost - tn::log2w_intersection(net, n.union_ixs, S);
    per_subtask.add(c);
    m.max_union_log2size = std::max(m.max_union_log2size, c);
  }
  m.log2_cost_per_subtask = per_subtask.value();
  m.log2_total_cost = m.log2_cost_per_subtask + m.log2_num_subtasks;
  m.log2_overhead = m.log2_total_cost - tree.total_log2cost();
  return m;
}

IncrementalSlicing::IncrementalSlicing(const ContractionTree& tree, SliceSet slices,
                                       double target_log2size)
    : tree_(&tree), target_(target_log2size), S_(std::move(slices)) {
  const TensorNetwork& net = *tree.network();
  const IndexSet& S = S_.edges();
  const int n_nodes = tree.num_nodes();
  size_.resize(size_t(n_nodes));
  term_of_.assign(size_t(n_nodes), -1);
  prefix_.push_back(kLog2Zero);
  // An internal node's ixs lie inside its union_ixs, so one set per node
  // names every edge that can change its size or cost.
  auto held = [](const ContractionTree::Node& n) -> const IndexSet& {
    return n.is_leaf() ? n.ixs : n.union_ixs;
  };
  edge_begin_.assign(size_t(net.num_edges()) + 1, 0);
  for (int i = 0; i < n_nodes; ++i) {
    const auto& n = tree.node(i);
    held(n).for_each([&](int e) { ++edge_begin_[size_t(e) + 1]; });
    size_[size_t(i)] = n.log2size - tn::log2w_intersection(net, n.ixs, S);
    over_ += over(size_[size_t(i)]);
    if (n.is_leaf()) continue;
    term_of_[size_t(i)] = int(term_.size());
    term_.push_back(n.log2cost - tn::log2w_intersection(net, n.union_ixs, S));
    prefix_.push_back(log2_add(prefix_.back(), term_.back()));
  }
  for (size_t e = 1; e < edge_begin_.size(); ++e) edge_begin_[e] += edge_begin_[e - 1];
  edge_nodes_.resize(size_t(edge_begin_.back()));
  std::vector<int> fill(edge_begin_.begin(), edge_begin_.end() - 1);
  for (int i = 0; i < n_nodes; ++i)
    held(tree.node(i)).for_each([&](int e) { edge_nodes_[size_t(fill[size_t(e)]++)] = i; });
  touched_.reserve(size_t(n_nodes));
  undo_.reserve(size_t(n_nodes));
  prefix_before_.reserve(prefix_.size());
}

void IncrementalSlicing::propose(EdgeId a, EdgeId b) {
  assert(!pending_);
  pending_ = true;
  a_ = a;
  b_ = b;
  S_.remove(a);
  if (b != tn::kNone) S_.add(b);
  over_before_ = over_;
  undo_.clear();

  const TensorNetwork& net = *tree_->network();
  const IndexSet& S = S_.edges();
  size_t first_changed = term_.size();
  auto recost = [&](int i) {
    const auto& n = tree_->node(i);
    const int t = term_of_[size_t(i)];
    undo_.push_back({i, size_[size_t(i)], t < 0 ? 0.0 : term_[size_t(t)]});
    const double sz = n.log2size - tn::log2w_intersection(net, n.ixs, S);
    over_ += int(over(sz)) - int(over(size_[size_t(i)]));
    size_[size_t(i)] = sz;
    if (t < 0) return;
    const double c = n.log2cost - tn::log2w_intersection(net, n.union_ixs, S);
    // Nodes arrive in increasing id order, so the first change is the
    // earliest term of the fold that moved.
    if (first_changed == term_.size() && c != term_[size_t(t)]) first_changed = size_t(t);
    term_[size_t(t)] = c;
  };
  // Both node lists ascend; their union visits a node holding both once.
  auto nodes_of = [&](EdgeId e) {
    const int* base = edge_nodes_.data();
    return std::make_pair(base + edge_begin_[size_t(e)], base + edge_begin_[size_t(e) + 1]);
  };
  const auto [a0, a1] = nodes_of(a);
  const auto [b0, b1] = b == tn::kNone ? std::make_pair(a1, a1) : nodes_of(b);
  touched_.clear();
  std::set_union(a0, a1, b0, b1, std::back_inserter(touched_));
  for (int i : touched_) recost(i);

  refold_from_ = first_changed;
  prefix_before_.assign(prefix_.begin() + std::ptrdiff_t(first_changed) + 1, prefix_.end());
  double acc = prefix_[first_changed];
  for (size_t k = first_changed; k < term_.size(); ++k) {
    acc = log2_add(acc, term_[k]);
    prefix_[k + 1] = acc;
  }
}

void IncrementalSlicing::commit() {
  assert(pending_);
  pending_ = false;
}

void IncrementalSlicing::reject() {
  assert(pending_);
  pending_ = false;
  if (b_ != tn::kNone) S_.remove(b_);
  S_.add(a_);
  over_ = over_before_;
  for (const Undo& u : undo_) {
    size_[size_t(u.node)] = u.size;
    const int t = term_of_[size_t(u.node)];
    if (t >= 0) term_[size_t(t)] = u.term;
  }
  std::copy(prefix_before_.begin(), prefix_before_.end(),
            prefix_.begin() + std::ptrdiff_t(refold_from_) + 1);
}

double sliced_node_log2size(const ContractionTree& tree, int node, const IndexSet& slices) {
  const auto& n = tree.node(node);
  return n.log2size - tn::log2w_intersection(*tree.network(), n.ixs, slices);
}

bool satisfies_memory_bound(const ContractionTree& tree, const SliceSet& slices,
                            double target_log2size) {
  for (int i = 0; i < tree.num_nodes(); ++i)
    if (sliced_node_log2size(tree, i, slices.edges()) > target_log2size + 1e-9) return false;
  return true;
}

double brute_force_sliced_log2cost(const ContractionTree& tree, const SliceSet& slices) {
  const TensorNetwork& net = *tree.network();
  auto sliced = slices.to_vector();
  for (EdgeId e : sliced) {
    (void)e;
    assert(std::abs(net.edge(e).log2w - 1.0) < 1e-12 && "reference assumes unit weights");
  }
  const size_t n_tasks = size_t(1) << sliced.size();
  Log2Accumulator total;
  for (size_t task = 0; task < n_tasks; ++task) {
    // Every subtask runs the identical shrunken tree, so the assignment does
    // not change the cost — but we still loop to mirror the execution
    // structure the definition describes.
    Log2Accumulator sub;
    for (const auto& nd : tree.nodes()) {
      if (nd.is_leaf()) continue;
      sub.add(nd.log2cost - tn::log2w_intersection(net, nd.union_ixs, slices.edges()));
    }
    total.add(sub.value());
  }
  return total.value();
}

}  // namespace ltns::core

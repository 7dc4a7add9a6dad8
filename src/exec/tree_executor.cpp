#include "exec/tree_executor.hpp"

#include <cassert>

#include "util/timer.hpp"

namespace ltns::exec {

void ExecStats::merge(const ExecStats& o) {
  flops += o.flops;
  bytes_main += o.bytes_main;
  permute_elems += o.permute_elems;
  gemm_seconds += o.gemm_seconds;
  permute_seconds += o.permute_seconds;
  memory_seconds += o.memory_seconds;
  peak_live_elems = std::max(peak_live_elems, o.peak_live_elems);
  device.merge(o.device);
}

void ExecStats::add(const ContractStats& cs) {
  flops += cs.flops;
  permute_elems += cs.permute_elems;
  gemm_seconds += cs.gemm_seconds;
  permute_seconds += cs.permute_seconds;
}

namespace {

struct Runner {
  const tn::ContractionTree& tree;
  const LeafProvider& leaves;
  const std::vector<int>& sliced;
  uint64_t assignment;
  runtime::SliceScheduler* sched;
  ExecStats* stats;
  Precision prec;

  std::vector<Tensor> value;  // per tree node
  size_t live_elems = 0;

  void track(ptrdiff_t delta) {
    live_elems = size_t(ptrdiff_t(live_elems) + delta);
    if (stats) stats->peak_live_elems = std::max(stats->peak_live_elems, live_elems);
  }

  Tensor run(int root) {
    value.assign(size_t(tree.num_nodes()), Tensor{});
    // Postorder restricted to the subtree under `root`.
    std::vector<std::pair<int, int>> st{{root, 0}};
    while (!st.empty()) {
      auto& [id, phase] = st.back();
      const auto& n = tree.node(id);
      if (n.is_leaf()) {
        ScopedSeconds tmem(stats != nullptr ? &stats->memory_seconds : nullptr);
        value[size_t(id)] = leaves(n.leaf_vertex).fixed_all(sliced, assignment);
        tmem.close();
        track(ptrdiff_t(value[size_t(id)].size()));
        st.pop_back();
      } else if (phase == 0) {
        phase = 1;
        st.push_back({n.left, 0});
      } else if (phase == 1) {
        phase = 2;
        st.push_back({n.right, 0});
      } else {
        Tensor& a = value[size_t(n.left)];
        Tensor& b = value[size_t(n.right)];
        ContractStats cs;
        Tensor out = contract(a, b, sched, &cs, prec, stats ? &stats->device : nullptr);
        if (stats) {
          stats->add(cs);
          // Step-by-step traffic: read both operands, write the result,
          // plus the transpose round-trips.
          stats->bytes_main +=
              8.0 * (double(a.size()) + double(b.size()) + double(out.size())) +
              16.0 * cs.permute_elems;
        }
        track(ptrdiff_t(out.size()));
        track(-ptrdiff_t(a.size()));
        track(-ptrdiff_t(b.size()));
        a.drop();
        b.drop();
        value[size_t(id)] = std::move(out);
        st.pop_back();
      }
    }
    return std::move(value[size_t(root)]);
  }
};

}  // namespace

Tensor execute_tree(const tn::ContractionTree& tree, const LeafProvider& leaves,
                    const std::vector<int>& sliced_edges, uint64_t assignment, runtime::SliceScheduler* sched,
                    ExecStats* stats, Precision prec) {
  Runner r{tree, leaves, sliced_edges, assignment, sched, stats, prec, {}, 0};
  return r.run(tree.root());
}

Tensor execute_subtree(const tn::ContractionTree& tree, int node, const LeafProvider& leaves,
                       const std::vector<int>& sliced_edges, uint64_t assignment,
                       runtime::SliceScheduler* sched, ExecStats* stats, Precision prec) {
  Runner r{tree, leaves, sliced_edges, assignment, sched, stats, prec, {}, 0};
  return r.run(node);
}

}  // namespace ltns::exec

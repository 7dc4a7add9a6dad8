// Kernel-path tests (exec::contract at the probed ISA tier, src/device/
// accounting). The load-bearing invariants:
//   1. exec::contract, at whatever tier device::cpu_probe() selects, is
//      BITWISE identical to the reference composition — exec::permute +
//      exec::cgemm at fp32, the portable bf16 chain at bf16 — for fuzzed
//      tensor pairs and every scheduler width;
//   2. the fused stem windows and the step-by-step tree executor are
//      bitwise identical to the same work composed from reference
//      contractions, at fp32 and bf16;
//   3. accounting: every contraction counts its kernel calls, and a vector
//      tier reports its operand packing as to-device traffic — the guard
//      that the executors really reach the vector kernels (a regression to
//      the scalar path fails it);
//   4. DeviceStats rides ExecStats/ExecutorSnapshot through run_sliced, and
//      the accumulated tensor is bitwise identical across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "core/greedy_slicer.hpp"
#include "device/cpu_probe.hpp"
#include "device/stats.hpp"
#include "exec/contract.hpp"
#include "exec/fused_executor.hpp"
#include "exec/slice_runner.hpp"
#include "exec/tree_executor.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::device {
namespace {

using exec::Precision;
using exec::Tensor;
using test::bitwise_equal;
using test::reference_contract;

constexpr Precision kPrecisions[] = {Precision::kFp32, Precision::kBf16};

// Random tensor over `ixs` in a shuffled axis order, so the contraction
// has real permutes to do on either side.
Tensor shuffled_tensor(std::vector<int> ixs, Rng& rng, uint64_t seed) {
  for (size_t i = ixs.size(); i > 1; --i) std::swap(ixs[i - 1], ixs[rng.next_u64() % i]);
  return exec::random_tensor(ixs, seed);
}

// --- tensor alignment (the vector kernels' precondition) ------------------

TEST(DeviceAlignment, TensorStorageIs64ByteAligned) {
  static_assert(exec::kTensorAlignment == 64, "the kernels assume 64-byte tensors");
  for (int rank : {0, 1, 3, 7, 12}) {
    std::vector<int> ixs;
    for (int i = 0; i < rank; ++i) ixs.push_back(i);
    auto t = exec::random_tensor(ixs, uint64_t(rank) + 1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.raw()) % exec::kTensorAlignment, 0u)
        << "rank " << rank;
    // Copies and moves keep the guarantee (fresh aligned storage).
    Tensor c = t;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c.raw()) % exec::kTensorAlignment, 0u);
  }
}

TEST(DeviceStatsMergeAndSince, FieldwiseArithmetic) {
  DeviceStats a, b;
  a.bytes_to_device = 100;
  a.gemm_calls = 3;
  a.stem_steps = 2;
  b.bytes_to_device = 40;
  b.gemm_calls = 1;
  b.permute_calls = 5;
  DeviceStats m = a;
  m.merge(b);
  EXPECT_EQ(m.bytes_to_device, 140.0);
  EXPECT_EQ(m.gemm_calls, 4u);
  EXPECT_EQ(m.permute_calls, 5u);
  auto d = m.since(b);
  EXPECT_EQ(d.bytes_to_device, a.bytes_to_device);
  EXPECT_EQ(d.gemm_calls, a.gemm_calls);
  EXPECT_EQ(d.stem_steps, a.stem_steps);
}

// --- contract(): the one kernel path vs the reference composition ---------

TEST(KernelPath, ContractMatchesReferenceBitwise) {
  Rng rng(2024);
  for (Precision prec : kPrecisions) {
    for (int trial = 0; trial < 40; ++trial) {
      // Shared axes 0..s-1, A-only axes from 100, B-only axes from 200.
      const int shared = int(rng.next_u64() % 5);
      const int free_a = int(rng.next_u64() % 7);
      const int free_b = int(rng.next_u64() % 7);
      std::vector<int> ia, ib;
      for (int e = 0; e < shared; ++e) {
        ia.push_back(e);
        ib.push_back(e);
      }
      for (int e = 0; e < free_a; ++e) ia.push_back(100 + e);
      for (int e = 0; e < free_b; ++e) ib.push_back(200 + e);
      const Tensor a = shuffled_tensor(ia, rng, 500 + uint64_t(trial));
      const Tensor b = shuffled_tensor(ib, rng, 900 + uint64_t(trial));
      const auto plan = exec::plan_contract(a.ixs(), b.ixs());

      exec::ContractStats cs;
      DeviceStats ds;
      const Tensor got = exec::contract(a, b, nullptr, &cs, prec, &ds);
      ASSERT_TRUE(bitwise_equal(reference_contract(a, b, prec), got))
          << exec::precision_name(prec) << " trial " << trial;
      EXPECT_EQ(cs.flops, exec::gemm_flops(plan.m, plan.n, plan.k));
      EXPECT_EQ(ds.gemm_calls, 1u);
      EXPECT_EQ(ds.permute_calls, uint64_t(!plan.a_identity) + uint64_t(!plan.b_identity));
      EXPECT_EQ(ds.bytes_to_host, 0.0);  // nothing is ever copied back
    }
  }
}

TEST(KernelPath, ContractBitwiseAcrossSchedulerWidths) {
  // m = 2^10, k = 2^3, n = 2^4: past the GEMM's parallel threshold.
  Rng rng(77);
  std::vector<int> ia{0, 1, 2}, ib{0, 1, 2};
  for (int e = 0; e < 10; ++e) ia.push_back(100 + e);
  for (int e = 0; e < 4; ++e) ib.push_back(200 + e);
  const Tensor a = shuffled_tensor(ia, rng, 100);
  const Tensor b = shuffled_tensor(ib, rng, 101);
  for (Precision prec : kPrecisions) {
    const Tensor want = reference_contract(a, b, prec);
    for (int workers : {1, 2, 3, 5}) {
      runtime::SliceScheduler sched(workers);
      Tensor got;
      test::in_one_task(sched, [&] { got = exec::contract(a, b, &sched, nullptr, prec); });
      EXPECT_TRUE(bitwise_equal(want, got))
          << exec::precision_name(prec) << " workers=" << workers;
    }
  }
}

TEST(KernelPath, VectorTierReportsPackingTraffic) {
  // n = 2^5 columns fills a lane block on every vector tier, so a vector
  // GEMM must pack; the portable tier reads its operands in place.
  Rng rng(5);
  std::vector<int> ia{0, 1, 2, 3, 100, 101, 102, 103}, ib{0, 1, 2, 3};
  for (int e = 0; e < 5; ++e) ib.push_back(200 + e);
  const Tensor a = shuffled_tensor(ia, rng, 11);
  const Tensor b = shuffled_tensor(ib, rng, 12);
  DeviceStats ds;
  exec::contract(a, b, nullptr, nullptr, Precision::kFp32, &ds);
  EXPECT_EQ(ds.gemm_calls, 1u);
  if (cpu_probe().active == exec::IsaTier::kPortable) {
    EXPECT_EQ(ds.bytes_to_device, 0.0);
    EXPECT_EQ(ds.uploads, 0u);
  } else {
    EXPECT_GT(ds.bytes_to_device, 0.0) << "contract() did not reach the "
                                       << exec::isa_name(cpu_probe().active) << " kernels";
    EXPECT_GT(ds.uploads, 0u);
  }
}

// --- executors vs the reference composition -------------------------------

struct Fixture {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  core::SliceSet slices;

  exec::LeafProvider leaves() const {
    return [this](tn::VertId v) -> const Tensor& { return ln.tensors[size_t(v)]; };
  }
};

Fixture make_fixture() {
  Fixture f{test::small_network(3, 4, 6), nullptr, core::SliceSet{}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net));
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 3.0);
  f.slices = core::greedy_slice(*f.tree, go);
  return f;
}

// The subtree under `node` for one slicing subtask, contracted in the tree
// executor's postorder with reference contractions.
Tensor reference_walk(const tn::ContractionTree& tree, int node, const exec::LeafProvider& leaves,
                      const std::vector<int>& sliced, uint64_t task, Precision prec) {
  const auto& n = tree.node(node);
  if (n.is_leaf()) return leaves(n.leaf_vertex).fixed_all(sliced, task);
  return reference_contract(reference_walk(tree, n.left, leaves, sliced, task, prec),
                            reference_walk(tree, n.right, leaves, sliced, task, prec), prec);
}

// One fused window from reference contractions: the stem tensor's axes no
// window branch touches are fixed per secondary subtask, the steps fold in
// order, and each subtask's result fills its block of the output
// (secondary axes leading) — the layout exec::execute_fused produces.
Tensor reference_window(const Tensor& stem, const std::vector<Tensor>& branches,
                        Precision prec) {
  std::set<int> touched;
  for (const auto& b : branches) touched.insert(b.ixs().begin(), b.ixs().end());
  std::vector<int> secondary;
  for (int e : stem.ixs())
    if (touched.count(e) == 0) secondary.push_back(e);
  Tensor out;
  for (uint64_t s = 0; s < (uint64_t(1) << secondary.size()); ++s) {
    Tensor w = stem.fixed_all(secondary, s);
    for (const auto& b : branches) w = reference_contract(w, b, prec);
    if (s == 0) {
      std::vector<int> out_ixs = secondary;
      out_ixs.insert(out_ixs.end(), w.ixs().begin(), w.ixs().end());
      out = Tensor(out_ixs);
    }
    uint64_t block = 0;  // bit i of s is secondary[i]; secondary[0] is slowest
    for (size_t i = 0; i < secondary.size(); ++i)
      block |= ((s >> i) & 1) << (secondary.size() - 1 - i);
    std::copy(w.data().begin(), w.data().end(), out.data().begin() + size_t(block) * w.size());
  }
  return out;
}

TEST(KernelPath, FusedStemWindowsMatchReferenceBitwise) {
  auto f = make_fixture();
  const auto stem = tn::extract_stem(*f.tree);
  const auto sliced = f.slices.to_vector();
  const auto plan = exec::plan_fused(stem, sliced, 1 << 12);
  ASSERT_GT(plan.fused_steps(), 0);
  runtime::SliceScheduler sched(3);
  for (Precision prec : kPrecisions) {
    for (uint64_t task : {uint64_t(0), (uint64_t(1) << sliced.size()) - 1}) {
      auto walk = [&](int node) {
        return reference_walk(*f.tree, node, f.leaves(), sliced, task, prec);
      };
      Tensor want = walk(stem.nodes[0]);
      for (const auto& win : plan.windows) {
        std::vector<Tensor> branches;
        for (int k = win.begin_step; k < win.end_step; ++k)
          branches.push_back(walk(stem.branches[size_t(k)]));
        want = win.in_ldm ? reference_window(want, branches, prec)
                          : reference_contract(want, branches[0], prec);
      }
      exec::FusedStats fs;
      Tensor got;
      test::in_one_task(
          sched, [&] { got = exec::execute_fused(plan, f.leaves(), task, &sched, &fs, prec); });
      EXPECT_TRUE(bitwise_equal(want, got)) << exec::precision_name(prec) << " task " << task;
      EXPECT_GT(fs.exec.device.stem_steps, 0u);
      EXPECT_GT(fs.exec.device.gemm_calls, fs.exec.device.stem_steps);  // + branch pre-contraction
    }
  }
}

TEST(KernelPath, TreeSubtaskMatchesReferenceWalkBitwise) {
  auto f = make_fixture();
  const auto sliced = f.slices.to_vector();
  for (Precision prec : kPrecisions) {
    for (uint64_t task : {uint64_t(0), (uint64_t(1) << sliced.size()) - 1}) {
      exec::ExecStats es;
      const Tensor got = exec::execute_tree(*f.tree, f.leaves(), sliced, task, nullptr, &es, prec);
      EXPECT_TRUE(bitwise_equal(
          reference_walk(*f.tree, f.tree->root(), f.leaves(), sliced, task, prec), got))
          << exec::precision_name(prec) << " task " << task;
      EXPECT_EQ(es.device.gemm_calls, uint64_t(f.tree->num_nodes() / 2));  // one per inner node
    }
  }
}

TEST(KernelPath, FusedWindowPermutesEachBranchOncePerTask) {
  // One LDM window over the longest stem prefix whose bottom tensor keeps
  // axes the window never touches: at least two secondary subtasks, and a
  // single window, so the fused and step-by-step executors fold every element's
  // chain in the same order and agree bitwise up to the output layout.
  auto f = make_fixture();
  const auto full = tn::extract_stem(*f.tree);
  const auto sliced = f.slices.to_vector();
  const uint64_t task = 0;
  bool tested = false;
  for (int j = full.length() - 1; j >= 1 && !tested; --j) {  // longest prefix first
    tn::Stem stem{full.tree, {full.nodes.begin(), full.nodes.begin() + j + 1},
                  {full.branches.begin(), full.branches.begin() + j}};
    const auto plan = exec::plan_fused(stem, sliced, size_t(1) << 24);
    if (plan.windows.size() != 1 || plan.windows[0].secondary_count == 0) continue;

    // Expected kernel calls: the branch and bottom pre-contractions, the
    // stem-side permutes of every subtask, and each branch laid out once.
    exec::ExecStats pre;
    const Tensor bottom =
        exec::execute_subtree(*f.tree, stem.nodes[0], f.leaves(), sliced, task, nullptr, &pre);
    std::vector<Tensor> branches;
    for (int b : stem.branches)
      branches.push_back(
          exec::execute_subtree(*f.tree, b, f.leaves(), sliced, task, nullptr, &pre));
    std::set<int> touched;
    for (const auto& b : branches) touched.insert(b.ixs().begin(), b.ixs().end());
    std::vector<int> w_ixs;
    for (int e : bottom.ixs())
      if (touched.count(e) != 0) w_ixs.push_back(e);
    const uint64_t n_sub = uint64_t(1) << plan.windows[0].secondary_count;
    uint64_t stem_side = 0, branch_side = 0;
    for (const auto& b : branches) {
      const auto p = exec::plan_contract(w_ixs, b.ixs());
      stem_side += p.a_identity ? 0 : 1;
      branch_side += p.b_identity ? 0 : 1;
      w_ixs = p.out_ixs;
    }
    if (branch_side == 0) continue;  // nothing to hoist in this prefix
    tested = true;

    exec::FusedStats ss;
    const Tensor want = exec::execute_stem_stepwise(stem, f.leaves(), sliced, task, nullptr, &ss);
    runtime::SliceScheduler sched(3);
    for (bool shared : {false, true}) {
      exec::FusedStats fs;
      Tensor got;
      if (shared)
        test::in_one_task(sched,
                          [&] { got = exec::execute_fused(plan, f.leaves(), task, &sched, &fs); });
      else
        got = exec::execute_fused(plan, f.leaves(), task, nullptr, &fs);
      EXPECT_TRUE(bitwise_equal(want, exec::permute(got, want.ixs())));
      EXPECT_EQ(fs.exec.device.permute_calls,
                pre.device.permute_calls + n_sub * stem_side + branch_side)
          << "j=" << j << " subtasks=" << n_sub;
      EXPECT_EQ(fs.exec.device.stem_steps, n_sub * uint64_t(j));
    }
  }
  EXPECT_TRUE(tested) << "no stem prefix has a secondary-sliced window with a branch permute";
}

// --- whole sliced runs: every worker count, bitwise -----------------------

TEST(RunSliced, BitwiseIdenticalAcrossWorkers) {
  auto f = make_fixture();
  ASSERT_GE(f.slices.size(), 2);
  for (Precision prec : kPrecisions) {
    // The whole range, and a 1-task window whose GEMM row panels the idle
    // workers share: each bitwise equal to its 1-worker run.
    for (uint64_t tasks : {uint64_t(0), uint64_t(1)}) {
      runtime::SliceScheduler one(1);
      exec::SliceRunOptions base;
      base.scheduler = &one;
      base.precision = prec;
      base.num_tasks = tasks;
      auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, base);
      ASSERT_TRUE(ref.completed);
      for (int workers : {2, 3}) {
        runtime::SliceScheduler sched(workers);
        exec::SliceRunOptions ro = base;
        ro.scheduler = &sched;
        auto r = exec::run_sliced(*f.tree, f.leaves(), f.slices, ro);
        ASSERT_TRUE(r.completed);
        EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
            << exec::precision_name(prec) << " tasks=" << tasks << " workers=" << workers;
        // DeviceStats rides the run's ExecStats and its ExecutorSnapshot.
        EXPECT_GT(r.stats.device.gemm_calls, 0u);
        EXPECT_EQ(r.executor_stats.device.gemm_calls, r.stats.device.gemm_calls);
      }
    }
  }
}

TEST(RunSliced, FusedPathBitwiseIdenticalAcrossWorkers) {
  auto f = make_fixture();
  auto stem = tn::extract_stem(*f.tree);
  auto plan = exec::plan_fused(stem, f.slices.to_vector(), 1 << 12);
  for (Precision prec : kPrecisions) {
    exec::Tensor ref;
    for (int workers : {1, 2}) {
      runtime::SliceScheduler sched(workers);
      exec::SliceRunOptions ro;
      ro.scheduler = &sched;
      ro.fused = &plan;
      ro.precision = prec;
      auto r = exec::run_sliced(*f.tree, f.leaves(), f.slices, ro);
      ASSERT_TRUE(r.completed);
      if (workers == 1) ref = r.accumulated;
      EXPECT_TRUE(bitwise_equal(ref, r.accumulated))
          << exec::precision_name(prec) << " workers=" << workers;
      EXPECT_GT(r.executor_stats.device.stem_steps, 0u);
    }
  }
}

}  // namespace
}  // namespace ltns::device

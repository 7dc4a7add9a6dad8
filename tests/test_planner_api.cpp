// Planner (all slicer kinds) and Simulator facade option-matrix tests.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>

#include "api/simulator.hpp"
#include "core/planner.hpp"
#include "sv/statevector.hpp"
#include "test_helpers.hpp"

namespace ltns {
namespace {

core::PlanOptions fast_plan(double target) {
  core::PlanOptions po;
  po.path.greedy_trials = 4;
  po.path.partition_trials = 2;
  po.target_log2size = target;
  po.refiner.moves_per_temperature = 6;
  po.refiner.alpha = 0.75;
  return po;
}

class PlannerKinds : public ::testing::TestWithParam<core::SlicerKind> {};

TEST_P(PlannerKinds, ProducesValidBoundedPlans) {
  auto ln = test::small_network(4, 4, 8);
  auto po = fast_plan(8);
  po.slicer = GetParam();
  auto plan = core::make_plan(ln.net, po);
  std::string why;
  EXPECT_TRUE(plan.tree->validate(&why)) << why;
  EXPECT_TRUE(core::satisfies_memory_bound(*plan.tree, plan.slices, po.target_log2size));
  EXPECT_EQ(plan.stem.nodes.back(), plan.tree->root());
  EXPECT_GE(plan.num_subtasks(), 1.0);
  EXPECT_FALSE(plan.path_method.empty());
  // Metrics agree with a fresh evaluation.
  auto m = core::evaluate_slicing(*plan.tree, plan.slices);
  EXPECT_NEAR(m.log2_total_cost, plan.metrics.log2_total_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PlannerKinds,
                         ::testing::Values(core::SlicerKind::kGreedyBaseline,
                                           core::SlicerKind::kLifetime,
                                           core::SlicerKind::kLifetimeRefined));

TEST(Planner, RefinedNeverWorseThanUnrefined) {
  auto ln = test::small_network(4, 4, 8);
  auto po = fast_plan(7);
  po.slicer = core::SlicerKind::kLifetime;
  auto p1 = core::make_plan(ln.net, po);
  po.slicer = core::SlicerKind::kLifetimeRefined;
  auto p2 = core::make_plan(ln.net, po);
  EXPECT_LE(p2.metrics.log2_total_cost, p1.metrics.log2_total_cost + 1e-9);
}

TEST(Planner, PlanIsCopyableAndStable) {
  // The stem points into the tree; copying/moving the Plan must not break it.
  auto ln = test::small_network(3, 3, 6);
  auto plan = core::make_plan(ln.net, fast_plan(8));
  core::Plan copy = plan;
  core::Plan moved = std::move(plan);
  EXPECT_EQ(copy.stem.tree, copy.tree.get() == nullptr ? nullptr : copy.stem.tree);
  EXPECT_EQ(moved.stem.nodes.back(), moved.tree->root());
  EXPECT_NEAR(moved.stem.total_log2cost(), copy.stem.total_log2cost(), 1e-12);
}

// Plans make_plan produced before the SA refiner ran on the incremental
// Eq. 4 state, pinned bit for bit: the slice edges, every SlicedMetrics
// field and the refiner's counters. A change to the refiner's arithmetic
// or decision order shows up here even when the new plan is still good.
struct GoldenPlan {
  const char* name;
  circuit::Circuit circuit;
  std::vector<int> open_qubits;
  double target_log2size;
  std::vector<tn::EdgeId> slices;
  // log2_num_subtasks, log2_cost_per_subtask, log2_total_cost,
  // log2_overhead, max_log2size, max_union_log2size.
  std::array<uint64_t, 6> metric_bits;
  int proposed, accepted, uphill_accepted;
};

uint64_t bits_of(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

circuit::Circuit rqc(const circuit::Device& dev, int cycles, uint64_t seed) {
  circuit::RqcOptions o;
  o.cycles = cycles;
  o.seed = seed;
  return circuit::random_quantum_circuit(dev, o);
}

TEST(Planner, GoldenPlansAreBitIdentical) {
  const GoldenPlan golden[] = {
      {"gen 5 5 11, seed 1, 2^16",
       rqc(circuit::Device::grid(5, 5), 11, 1),
       {},
       16,
       {89, 253, 254, 257, 258, 297, 304, 307},
       {0x4020000000000000ULL, 0x4036dde5273b41efULL, 0x403edde5273b41efULL,
        0x3fc33c24d9ee3580ULL, 0x4030000000000000ULL, 0x4036000000000000ULL},
       20083,
       7977,
       5044},
      {"gen-sycamore 12, seed 1, 2^30",
       rqc(circuit::Device::sycamore53(), 12, 1),
       {},
       30,
       {173, 186, 193, 288, 350, 373, 449, 542, 672, 735, 750, 761, 770, 860, 863, 965},
       {0x4030000000000000ULL, 0x404415ad59dbc7feULL, 0x404c15ad59dbc7feULL,
        0x40163b39b6694a28ULL, 0x403e000000000000ULL, 0x4044000000000000ULL},
       19458,
       11056,
       5802},
      {"gen 4 5 10, seed 1, open 0 4 8 12 16, 2^16",
       rqc(circuit::Device::grid(4, 5), 10, 1),
       {0, 4, 8, 12, 16},
       16,
       {205, 215, 236, 245},
       {0x4010000000000000ULL, 0x40355a907b56acdcULL, 0x40395a907b56acdcULL,
        0x3f9b498368748000ULL, 0x4030000000000000ULL, 0x4033000000000000ULL},
       18856,
       3938,
       1539},
  };
  for (const auto& g : golden) {
    SCOPED_TRACE(g.name);
    circuit::LoweringOptions lo;
    lo.open_qubits = g.open_qubits;
    auto ln = circuit::lower(g.circuit, lo);
    circuit::simplify(ln);
    core::PlanOptions po;
    po.target_log2size = g.target_log2size;
    const auto plan = core::make_plan(ln.net, po);
    EXPECT_EQ(plan.slices.to_vector(), g.slices);
    const auto& m = plan.metrics;
    const std::array<uint64_t, 6> got = {
        bits_of(m.log2_num_subtasks), bits_of(m.log2_cost_per_subtask),
        bits_of(m.log2_total_cost),   bits_of(m.log2_overhead),
        bits_of(m.max_log2size),      bits_of(m.max_union_log2size)};
    EXPECT_EQ(got, g.metric_bits);
    EXPECT_EQ(plan.refine.proposed, g.proposed);
    EXPECT_EQ(plan.refine.accepted, g.accepted);
    EXPECT_EQ(plan.refine.uphill_accepted, g.uphill_accepted);
  }
}

TEST(Simulator, AmplitudeMatchesAcrossSlicerKinds) {
  auto c = test::small_rqc(3, 3, 6, 5);
  auto bits = test::zero_bits(c.num_qubits);
  auto want = sv::simulate_amplitude(c, bits);
  for (auto kind : {core::SlicerKind::kGreedyBaseline, core::SlicerKind::kLifetime,
                    core::SlicerKind::kLifetimeRefined}) {
    api::SimulatorOptions opt;
    opt.plan = fast_plan(8);
    opt.plan.slicer = kind;
    api::Simulator sim(c, opt);
    auto res = sim.amplitude(bits);
    EXPECT_NEAR(std::abs(res.amplitude - want), 0.0, 1e-4) << int(kind);
  }
}

TEST(Simulator, TinyLdmStillCorrect) {
  auto c = test::small_rqc(3, 3, 6, 9);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(8);
  opt.ldm_elems = 128;  // absurdly small: every window falls back or slices hard
  api::Simulator sim(c, opt);
  auto res = sim.amplitude(test::zero_bits(c.num_qubits));
  auto want = sv::simulate_amplitude(c, test::zero_bits(c.num_qubits));
  EXPECT_NEAR(std::abs(res.amplitude - want), 0.0, 1e-4);
}

TEST(Simulator, ExplicitSchedulerIsUsed) {
  runtime::SliceScheduler sched(3);
  auto c = test::small_rqc(3, 3, 6, 13);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(8);
  opt.scheduler = &sched;
  api::Simulator sim(c, opt);
  auto res = sim.amplitude(test::zero_bits(c.num_qubits));
  auto want = sv::simulate_amplitude(c, test::zero_bits(c.num_qubits));
  EXPECT_NEAR(std::abs(res.amplitude - want), 0.0, 1e-4);
}

TEST(Simulator, LooseTargetMeansNoSlices) {
  auto c = test::small_rqc(3, 3, 4);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(30);
  api::Simulator sim(c, opt);
  auto res = sim.amplitude(test::zero_bits(c.num_qubits));
  EXPECT_EQ(res.num_slices, 0);
  EXPECT_NEAR(res.slicing.overhead(), 1.0, 1e-9);
}

TEST(Simulator, BatchSingleOpenQubit) {
  auto c = test::small_rqc(2, 3, 5, 3);
  api::SimulatorOptions opt;
  opt.plan = fast_plan(8);
  api::Simulator sim(c, opt);
  auto batch = sim.batch_amplitudes(test::zero_bits(c.num_qubits), {2});
  ASSERT_EQ(batch.amplitudes.size(), 2u);
  sv::Statevector sv(c.num_qubits);
  sv.run(c);
  for (int b = 0; b < 2; ++b) {
    auto bits = test::zero_bits(c.num_qubits);
    bits[2] = b;
    EXPECT_NEAR(std::abs(batch.amplitudes[size_t(b)] - sv.amplitude_bits(bits)), 0.0, 1e-4);
  }
}

TEST(Simulator, SamplingDeterministicPerSeed) {
  api::BatchResult batch;
  batch.amplitudes = {{0.5, 0}, {0.5, 0}, {0.5, 0}, {0.5, 0}};
  auto a = api::Simulator::sample_from_batch(batch, 100, 42);
  auto b = api::Simulator::sample_from_batch(batch, 100, 42);
  EXPECT_EQ(a, b);
  auto c = api::Simulator::sample_from_batch(batch, 100, 43);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace ltns

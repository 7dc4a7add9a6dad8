// Batched query engine tests (src/query/). The load-bearing invariants:
//   1. the parser accepts both line and JSON syntaxes, canonicalizes the
//      echo text, and REJECTS malformed files with the offending line
//      number (never skips a bad line);
//   2. the grouper emits a valid cover — every query in exactly one group,
//      its open set a subset of the group's, its bits agreeing with the
//      group base outside it, the merge bound respected — and the cover is
//      a pure function of the query list (every transport derives the same
//      contraction sequence from it);
//   3. exact-mode amplitude answers are BITWISE identical to standalone
//      Simulator::amplitude runs, while grouping still executes fewer
//      contractions than queries;
//   4. the sample stream is byte-reproducible (pinned regression) and
//      matches Simulator::sample_from_batch, which delegates here;
//   5. Pauli expectations agree with a dense statevector computation;
//   6. a cached covering batch answers a subset query with zero
//      contractions, counted as a superset hit;
//   7. the v6 wire payloads (open-qubit jobs, query specs, per-query
//      result records) round-trip losslessly;
//   8. planning each open-set signature ahead, in one parallel scheduler
//      run after the first group, changes neither the answers nor the plan
//      counts: the stream is the same at any scheduler width, a throwing
//      sink stops the run before that step, and a signature a covering
//      batch answers is never planned.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <complex>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/simulator.hpp"
#include "dist/job.hpp"
#include "path/optimizer.hpp"
#include "query/engine.hpp"
#include "query/eval.hpp"
#include "query/grouper.hpp"
#include "query/query.hpp"
#include "runtime/slice_scheduler.hpp"
#include "sv/statevector.hpp"
#include "test_helpers.hpp"
#include "util/timer.hpp"

namespace ltns::query {
namespace {

using cd = std::complex<double>;

// --- parser ----------------------------------------------------------------

TEST(QueryParse, MixedFileCanonicalForms) {
  const std::string text =
      "# comment line\n"
      "\n"
      "amp 0101\n"
      "batch ?10?\n"
      "sample 8 99 1??0\n"
      "expect ZIIX\n"
      "expect IZZI 1001\n"
      "{\"kind\":\"sample\",\"n\":3,\"seed\":7,\"pattern\":\"00??\"}\n";
  auto p = parse_queries(text, 4);
  ASSERT_TRUE(p.ok()) << p.error;
  ASSERT_EQ(p.queries.size(), 6u);

  const Query& amp = p.queries[0];
  EXPECT_EQ(amp.kind, QueryKind::kAmplitude);
  EXPECT_EQ(amp.id, 1);
  EXPECT_EQ(amp.text, "amp 0101");
  EXPECT_EQ(amp.bits, (std::vector<int>{0, 1, 0, 1}));
  EXPECT_TRUE(amp.open_qubits.empty());

  const Query& batch = p.queries[1];
  EXPECT_EQ(batch.kind, QueryKind::kBatch);
  EXPECT_EQ(batch.text, "batch ?10?");
  EXPECT_EQ(batch.open_qubits, (std::vector<int>{0, 3}));
  EXPECT_EQ(batch.bits, (std::vector<int>{0, 1, 0, 0}));  // open positions zeroed

  const Query& smp = p.queries[2];
  EXPECT_EQ(smp.kind, QueryKind::kSample);
  EXPECT_EQ(smp.num_samples, 8);
  EXPECT_EQ(smp.seed, 99u);
  EXPECT_EQ(smp.open_qubits, (std::vector<int>{1, 2}));
  EXPECT_EQ(smp.text, "sample 8 99 1??0");

  const Query& ex = p.queries[3];
  EXPECT_EQ(ex.kind, QueryKind::kExpectation);
  EXPECT_EQ(ex.paulis, "ZIIX");
  EXPECT_EQ(ex.open_qubits, (std::vector<int>{0, 3}));

  const Query& ex2 = p.queries[4];
  EXPECT_EQ(ex2.open_qubits, (std::vector<int>{1, 2}));
  // Base bits carry the fixed qubits; support positions are forced to 0.
  EXPECT_EQ(ex2.bits, (std::vector<int>{1, 0, 0, 1}));

  // The JSON line walks the same validation path as its token twin.
  const Query& js = p.queries[5];
  EXPECT_EQ(js.kind, QueryKind::kSample);
  EXPECT_EQ(js.num_samples, 3);
  EXPECT_EQ(js.seed, 7u);
  EXPECT_EQ(js.text, "sample 3 7 00??");
}

TEST(QueryParse, RejectsMalformedFilesWithLineNumbers) {
  struct Case {
    const char* text;
    int line;
  };
  const Case cases[] = {
      {"amp 01\n", 1},                      // wrong pattern length
      {"amp 0101\namp 01x1\n", 2},          // bad bit char
      {"amp 0?01\n", 1},                    // '?' not allowed for amp
      {"frob 0101\n", 1},                   // unknown verb
      {"batch 0101\n", 1},                  // batch without '?'
      {"sample 0 7 0??1\n", 1},             // zero sample count
      {"sample 4 x 0??1\n", 1},             // bad seed
      {"amp 0101\n\nexpect IIII\n", 3},     // all-I pauli string
      {"expect ZIQI\n", 1},                 // bad pauli char
      {"{\"kind\":\"amp\"}\n", 1},          // JSON missing pattern
      {"{\"kind\":\"amp\",\"pattern\":\"0101\"\n", 1},  // unterminated JSON
      {"{\"kind\":\"amp\",\"why\":\"x\",\"pattern\":\"0101\"}\n", 1},  // unknown key
  };
  for (const auto& c : cases) {
    auto p = parse_queries(c.text, 4);
    EXPECT_FALSE(p.ok()) << c.text;
    EXPECT_EQ(p.error_line, c.line) << c.text << " -> " << p.error;
    EXPECT_TRUE(p.queries.empty()) << "rejected files must yield no queries";
  }
  // An empty file is an error too, not a silent no-op.
  EXPECT_FALSE(parse_queries("# only comments\n\n", 4).ok());
}

// --- grouper ---------------------------------------------------------------

// Structural validity of any cover: each item in exactly one group, open
// sets covered, bits agreeing with the base outside the group's open set.
void check_cover(const std::vector<PackItem>& items, const std::vector<GroupSpec>& groups,
                 int max_open) {
  std::vector<int> seen(items.size(), 0);
  for (const auto& g : groups) {
    ASSERT_FALSE(g.members.empty());
    EXPECT_TRUE(std::is_sorted(g.open_qubits.begin(), g.open_qubits.end()));
    for (int q : g.open_qubits) EXPECT_EQ(g.base_bits[size_t(q)], 0);
    for (int m : g.members) {
      ++seen[size_t(m)];
      const PackItem& it = items[size_t(m)];
      // The item's own open set is a subset of the group's...
      for (int q : it.open_qubits)
        EXPECT_TRUE(std::find(g.open_qubits.begin(), g.open_qubits.end(), q) !=
                    g.open_qubits.end());
      // ...and its fixed bits agree with the base outside the group's set.
      for (size_t q = 0; q < it.bits.size(); ++q) {
        if (std::find(g.open_qubits.begin(), g.open_qubits.end(), int(q)) !=
            g.open_qubits.end())
          continue;
        EXPECT_EQ(it.bits[q], g.base_bits[q]) << "qubit " << q;
      }
    }
    // Merged groups respect the bound; only a SINGLE oversize item may
    // exceed it (sealed group).
    if (g.members.size() > 1) {
      EXPECT_LE(int(g.open_qubits.size()), max_open);
    }
  }
  for (size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "item " << i << " must be in exactly one group";
}

TEST(Grouper, CoverIsValidAndDeterministic) {
  // Pseudo-random items over 12 qubits from a fixed in-test LCG.
  const int nq = 12;
  uint64_t s = 12345;
  auto next = [&] { return s = s * 6364136223846793005ull + 1442695040888963407ull; };
  std::vector<PackItem> items;
  for (int i = 0; i < 40; ++i) {
    PackItem it;
    it.bits.assign(size_t(nq), 0);
    for (int q = 0; q < nq; ++q) it.bits[size_t(q)] = int((next() >> 33) & 1);
    const int n_open = int((next() >> 33) % 4);  // 0..3 open qubits
    while (int(it.open_qubits.size()) < n_open) {
      const int q = int((next() >> 33) % uint64_t(nq));
      if (std::find(it.open_qubits.begin(), it.open_qubits.end(), q) == it.open_qubits.end())
        it.open_qubits.push_back(q);
    }
    std::sort(it.open_qubits.begin(), it.open_qubits.end());
    for (int q : it.open_qubits) it.bits[size_t(q)] = 0;
    items.push_back(std::move(it));
  }
  for (int max_open : {2, 4, 6}) {
    const auto a = pack_items(items, max_open);
    check_cover(items, a, max_open);
    const auto b = pack_items(items, max_open);  // pure function of the input
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].base_bits, b[i].base_bits);
      EXPECT_EQ(a[i].open_qubits, b[i].open_qubits);
      EXPECT_EQ(a[i].members, b[i].members);
    }
  }
}

TEST(Grouper, MergesItemsThatAgreeOutsideTheBound) {
  // 8 bitstrings over 10 qubits differing only on qubits {2, 5, 7}: one
  // shared contraction with 3 open qubits covers all of them.
  std::vector<PackItem> items;
  for (int v = 0; v < 8; ++v) {
    PackItem it;
    it.bits.assign(10, 0);
    it.bits[2] = v & 1;
    it.bits[5] = (v >> 1) & 1;
    it.bits[7] = (v >> 2) & 1;
    items.push_back(std::move(it));
  }
  const auto groups = pack_items(items, 4);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 8u);
  EXPECT_LE(groups[0].open_qubits.size(), 3u);
  check_cover(items, groups, 4);
}

TEST(Grouper, SealsOversizeItemInsteadOfSplitting) {
  PackItem big;
  big.bits.assign(12, 0);
  big.open_qubits = {0, 1, 2, 3, 4, 5, 6, 7};  // 8 > max_open = 4
  const auto groups = pack_items({big}, 4);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].open_qubits, big.open_qubits);  // honored, never split
}

TEST(Grouper, ExactModeDedupsAmpsGroupedModePacksThem) {
  const std::string text =
      "amp 0000\n"
      "amp 0100\n"
      "amp 0000\n"  // duplicate of query 1
      "amp 0001\n";
  auto p = parse_queries(text, 4);
  ASSERT_TRUE(p.ok());

  GrouperOptions exact;
  exact.group_amplitudes = false;
  const auto closed = group_queries(p.queries, exact);
  ASSERT_EQ(closed.size(), 3u);  // 4 queries, 3 distinct bitstrings
  for (const auto& g : closed) EXPECT_TRUE(g.open_qubits.empty());

  GrouperOptions grouped = exact;
  grouped.group_amplitudes = true;
  const auto open = group_queries(p.queries, grouped);
  // The four bitstrings agree outside qubits {1, 3}: one open group.
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].members.size(), 4u);
}

// --- evaluators ------------------------------------------------------------

TEST(Eval, RestrictAmplitudesSlicesTheRightEntries) {
  // Group open {1, 3} over 4 qubits: amplitudes[k] with k = (b1 << 1) | b3.
  const std::vector<cd> amps = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  std::vector<int> bits = {0, 0, 0, 1};  // fixes qubit 3 = 1
  const auto sub = restrict_amplitudes(amps, {1, 3}, {1}, bits);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0], cd(1, 0));  // b1=0, b3=1 -> k=1
  EXPECT_EQ(sub[1], cd(3, 0));  // b1=1, b3=1 -> k=3
  // Restricting onto the full set is the identity.
  const auto all = restrict_amplitudes(amps, {1, 3}, {1, 3}, {0, 0, 0, 0});
  EXPECT_EQ(all, amps);
}

TEST(Eval, SampleStreamIsPinned) {
  // Byte-reproducibility regression: the platform-stable xoshiro256**
  // stream over a fixed-order CDF must never drift — across runs, hosts,
  // process counts, or refactors. These exact picks are the contract.
  const std::vector<cd> amps = {{0.1, 0}, {0, 0.2}, {-0.3, 0}, {0, -0.4}};
  const auto picks = sample_from_amplitudes(amps, 12, 2023);
  const std::vector<uint64_t> pinned = {3, 3, 2, 3, 2, 2, 2, 3, 2, 3, 3, 3};
  EXPECT_EQ(picks, pinned);
  // And the stream is a pure function of (amplitudes, n, seed).
  EXPECT_EQ(sample_from_amplitudes(amps, 12, 2023), picks);
  EXPECT_NE(sample_from_amplitudes(amps, 12, 2024), picks);
}

// --- engine ----------------------------------------------------------------

api::SimulatorOptions quiet_options() {
  api::SimulatorOptions opt;
  opt.plan.target_log2size = 12;
  return opt;
}

TEST(Engine, ExactAmpAnswersAreBitwiseSoloRuns) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  const std::string text =
      "amp 000000000\n"
      "amp 010000000\n"
      "amp 000000000\n"  // duplicate: must not cost a second contraction
      "batch 0?0000?00\n"
      "sample 5 11 0?00000?0\n"
      "expect ZIIIIIIIZ\n";
  auto p = parse_queries(text, circ.num_qubits);
  ASSERT_TRUE(p.ok()) << p.error;

  api::Simulator sim(circ, quiet_options());
  Engine engine(sim, EngineOptions{});
  std::vector<QueryResult> results;
  const auto st = engine.run(p.queries, [&](const QueryResult& r) { results.push_back(r); });

  ASSERT_EQ(results.size(), p.queries.size());
  for (const auto& r : results) EXPECT_TRUE(r.error.empty()) << r.error;
  // Streamed in GROUP order (groups in first-member order, members
  // ascending): the duplicate query 3 rides query 1's closed group, so it
  // answers before query 2. A pure function of the query file.
  const std::vector<int> expected_order = {1, 3, 2, 4, 5, 6};
  for (size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i].id, expected_order[i]);
  auto by_id = [&](int id) -> const QueryResult& {
    for (const auto& r : results)
      if (r.id == id) return r;
    static QueryResult none;
    return none;
  };

  // The acceptance invariant: shared contractions beat per-query runs.
  EXPECT_EQ(st.queries, 6u);
  EXPECT_EQ(st.closed_groups, 2u);  // 3 amp queries, 2 distinct bitstrings
  EXPECT_EQ(st.open_groups, 1u);    // batch+sample+expect share one cover
  EXPECT_LT(st.contractions, st.queries);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(st.samples_drawn, 5u);

  // Bitwise identity: each exact-mode amp answer IS the standalone run's.
  api::Simulator solo(circ, quiet_options());
  for (int id : {1, 2, 3}) {
    const auto ar = solo.amplitude(p.queries[size_t(id - 1)].bits);
    ASSERT_TRUE(ar.completed);
    const cd got = by_id(id).amplitudes.at(0);
    EXPECT_EQ(got.real(), ar.amplitude.real());
    EXPECT_EQ(got.imag(), ar.amplitude.imag());
  }
  // The duplicate amp queries answered from ONE closed contraction agree
  // to the bit with each other.
  EXPECT_EQ(by_id(1).amplitudes[0], by_id(3).amplitudes[0]);
}

TEST(Engine, SampleQueryMatchesSimulatorHelper) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  auto p = parse_queries("sample 16 555 ?000000?0\n", circ.num_qubits);
  ASSERT_TRUE(p.ok()) << p.error;

  api::Simulator sim(circ, quiet_options());
  Engine engine(sim, EngineOptions{});
  std::vector<QueryResult> results;
  engine.run(p.queries, [&](const QueryResult& r) { results.push_back(r); });
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].error.empty()) << results[0].error;
  ASSERT_EQ(results[0].samples.size(), 16u);

  // Simulator::sample_from_batch delegates to the same evaluator; drawing
  // from the same batch with the same seed must reproduce the stream.
  api::Simulator solo(circ, quiet_options());
  const auto batch = solo.batch_amplitudes(p.queries[0].bits, p.queries[0].open_qubits);
  ASSERT_TRUE(batch.completed);
  const auto picks = api::Simulator::sample_from_batch(batch, 16, 555);
  ASSERT_EQ(picks.size(), 16u);
  for (size_t i = 0; i < picks.size(); ++i) {
    std::string full(size_t(circ.num_qubits), '0');
    for (size_t j = 0; j < p.queries[0].open_qubits.size(); ++j) {
      const uint64_t bit = (picks[i] >> (p.queries[0].open_qubits.size() - 1 - j)) & 1;
      full[size_t(p.queries[0].open_qubits[j])] = bit != 0 ? '1' : '0';
    }
    EXPECT_EQ(results[0].samples[i], full) << "sample " << i;
  }
  // Determinism across engine runs: the stream is part of the contract.
  std::vector<QueryResult> again;
  Engine(sim, EngineOptions{}).run(p.queries, [&](const QueryResult& r) { again.push_back(r); });
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].samples, results[0].samples);
}

TEST(Engine, ExpectationMatchesDenseStatevector) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  const std::string paulis = "ZIXIIIIIY";  // support {0, 2, 8}
  auto p = parse_queries("expect " + paulis + " 010000000\n", circ.num_qubits);
  ASSERT_TRUE(p.ok()) << p.error;

  api::Simulator sim(circ, quiet_options());
  Engine engine(sim, EngineOptions{});
  std::vector<QueryResult> results;
  engine.run(p.queries, [&](const QueryResult& r) { results.push_back(r); });
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].error.empty()) << results[0].error;

  // Dense reference: conditional state v over the support (support[0] the
  // most significant bit), <P> = v' (Z (x) X (x) Y) v / v'v, built from
  // explicit 2x2 matrices — fully independent of eval.cpp's sparse apply.
  sv::Statevector sv(circ.num_qubits);
  sv.run(circ);
  const auto& support = p.queries[0].open_qubits;
  const size_t dim = size_t(1) << support.size();
  std::vector<cd> v(dim);
  for (size_t k = 0; k < dim; ++k) {
    auto bits = p.queries[0].bits;
    for (size_t i = 0; i < support.size(); ++i)
      bits[size_t(support[i])] = int((k >> (support.size() - 1 - i)) & 1);
    v[k] = sv.amplitude_bits(bits);
  }
  const cd I(0, 1);
  const cd Z[2][2] = {{1, 0}, {0, -1}};
  const cd X[2][2] = {{0, 1}, {1, 0}};
  const cd Y[2][2] = {{0, -I}, {I, 0}};
  auto factor = [&](size_t i) { return i == 0 ? Z : (i == 1 ? X : Y); };
  cd numer(0, 0);
  double denom = 0;
  for (size_t r = 0; r < dim; ++r) {
    denom += std::norm(v[r]);
    for (size_t c = 0; c < dim; ++c) {
      cd elem(1, 0);
      for (size_t i = 0; i < support.size(); ++i) {
        const size_t rb = (r >> (support.size() - 1 - i)) & 1;
        const size_t cb = (c >> (support.size() - 1 - i)) & 1;
        elem *= factor(i)[rb][cb];
      }
      numer += std::conj(v[r]) * elem * v[c];
    }
  }
  ASSERT_GT(denom, 0.0);
  // The engine's amplitudes come from a float contraction; the reference
  // is double statevector — agreement to ~1e-4 is the honest bound.
  EXPECT_NEAR(results[0].expectation, numer.real() / denom, 1e-4);
}

TEST(Engine, BatchWiderThanTheSliceTargetStaysCorrect) {
  // Regression: a batch whose open output (2^4 entries) exceeds the slice
  // target (2^2) must still plan and contract correctly. The slicers used
  // to pick open edges, and the runners' additive merge then scrambled the
  // output; make_plan now clamps the bound to the open width and keeps
  // open edges out of every candidate pool.
  const auto circ = test::small_rqc(3, 3, 4, 7);
  auto p = parse_queries("batch ??0000??0\n", circ.num_qubits);  // open {0,1,6,7}
  ASSERT_TRUE(p.ok()) << p.error;

  api::SimulatorOptions opt;
  opt.plan.target_log2size = 2;  // far below the 4-qubit open output
  api::Simulator sim(circ, opt);
  Engine engine(sim, EngineOptions{});
  std::vector<QueryResult> results;
  const auto st = engine.run(p.queries, [&](const QueryResult& r) { results.push_back(r); });
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].error.empty()) << results[0].error;
  EXPECT_EQ(st.contractions, 1u);

  sv::Statevector sv(circ.num_qubits);
  sv.run(circ);
  const auto& open = p.queries[0].open_qubits;
  ASSERT_EQ(results[0].amplitudes.size(), size_t(1) << open.size());
  for (size_t k = 0; k < results[0].amplitudes.size(); ++k) {
    auto bits = p.queries[0].bits;
    for (size_t i = 0; i < open.size(); ++i)
      bits[size_t(open[i])] = int((k >> (open.size() - 1 - i)) & 1);
    const cd want = sv.amplitude_bits(bits);
    EXPECT_NEAR(results[0].amplitudes[k].real(), want.real(), 1e-4) << "entry " << k;
    EXPECT_NEAR(results[0].amplitudes[k].imag(), want.imag(), 1e-4) << "entry " << k;
  }
}

// Throwaway cache directory (plan/ result/ batch/ one level down).
struct ScopedCacheDir {
  std::string path;
  ScopedCacheDir() {
    char tmpl[] = "/tmp/ltns_query_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p != nullptr ? p : "/tmp/ltns_query_fallback";
  }
  ~ScopedCacheDir() {
    for (const char* sub : {"plan", "result", "batch", ""}) {
      const std::string d = sub[0] != '\0' ? path + "/" + sub : path;
      if (DIR* dp = ::opendir(d.c_str())) {
        while (dirent* e = ::readdir(dp)) {
          const std::string name = e->d_name;
          if (name != "." && name != "..") ::unlink((d + "/" + name).c_str());
        }
        ::closedir(dp);
        ::rmdir(d.c_str());
      }
    }
  }
};

TEST(Engine, CoveringBatchAnswersSubsetWithZeroContractions) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  ScopedCacheDir dir;
  auto opt = quiet_options();
  opt.cache.cache_dir = dir.path;
  api::Simulator sim(circ, opt);

  // Cold run caches (and indexes) the {1, 6} batch. The covering-batch
  // index lives for the cache's lifetime — the deployment shape is the job
  // server's long-lived cache, where later submits probe earlier batches.
  auto p1 = parse_queries("batch 0?0000?00\n", circ.num_qubits);
  ASSERT_TRUE(p1.ok());
  std::vector<QueryResult> cold;
  {
    const auto st = Engine(sim, EngineOptions{})
                        .run(p1.queries, [&](const QueryResult& r) { cold.push_back(r); });
    EXPECT_EQ(st.contractions, 1u);
    EXPECT_EQ(st.superset_hits, 0u);
  }

  // The {1} slice of the same base: the cached covering batch answers it
  // without any contraction.
  auto p2 = parse_queries("batch 0?0000000\n", circ.num_qubits);
  ASSERT_TRUE(p2.ok());
  std::vector<QueryResult> warm;
  const auto st = Engine(sim, EngineOptions{})
                      .run(p2.queries, [&](const QueryResult& r) { warm.push_back(r); });
  EXPECT_EQ(st.contractions, 0u);
  EXPECT_EQ(st.superset_hits, 1u);
  EXPECT_EQ(sim.cache_stats().superset_hits, 1u);

  // The sliced answers are the covering batch's entries, to the bit.
  ASSERT_EQ(cold.size(), 1u);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_EQ(warm[0].amplitudes.size(), 2u);
  EXPECT_EQ(warm[0].amplitudes[0], cold[0].amplitudes[0]);  // b1=0 -> b6=0 slice
  EXPECT_EQ(warm[0].amplitudes[1], cold[0].amplitudes[2]);  // b1=1 -> b6=0 slice
}

// --- planning ahead ----------------------------------------------------------

// Five open-set signatures (closed, {1,6}, {0,8}, {0,1}, {2,4}) that a merge
// bound of 2 keeps apart, two groups on the closed one.
const char* kSignatureMix =
    "amp 000000000\n"
    "batch 0?0000?00\n"
    "amp 010000000\n"
    "batch ?0000000?\n"
    "sample 5 11 ??0000000\n"
    "batch 00?0?0000\n"
    "expect ZIIIIIIIZ\n";

EngineOptions two_open() {
  EngineOptions eo;
  eo.max_open = 2;
  return eo;
}

// Every field of every streamed result, doubles compared as bits.
void expect_same_stream(const std::vector<QueryResult>& a, const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].error, b[i].error);
    EXPECT_EQ(a[i].samples, b[i].samples);
    ASSERT_EQ(a[i].amplitudes.size(), b[i].amplitudes.size());
    if (!a[i].amplitudes.empty()) {  // memcmp must not see an empty vector's null data()
      EXPECT_EQ(std::memcmp(a[i].amplitudes.data(), b[i].amplitudes.data(),
                            a[i].amplitudes.size() * sizeof(cd)),
                0)
          << "query " << a[i].id;
    }
    EXPECT_EQ(std::memcmp(&a[i].expectation, &b[i].expectation, sizeof(double)), 0);
  }
}

TEST(Engine, StreamIsByteIdenticalOnOneAndFourWorkers) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  auto p = parse_queries(kSignatureMix, circ.num_qubits);
  ASSERT_TRUE(p.ok()) << p.error;

  std::vector<QueryResult> streams[2];
  EngineStats stats[2];
  const int widths[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    runtime::SliceScheduler sched(widths[k]);
    auto opt = quiet_options();
    opt.scheduler = &sched;
    api::Simulator sim(circ, opt);
    Timer wall;
    stats[k] = Engine(sim, two_open()).run(p.queries, [&](const QueryResult& r) {
      streams[k].push_back(r);
    });
    const double wall_seconds = wall.seconds();
    // Planning and execution are timed as wall time on the engine thread,
    // never summed over the planning workers.
    EXPECT_GT(stats[k].plan_seconds, 0.0);
    EXPECT_LE(stats[k].plan_seconds + stats[k].exec_seconds, wall_seconds);
  }
  for (const auto& r : streams[0]) EXPECT_TRUE(r.error.empty()) << r.error;
  expect_same_stream(streams[0], streams[1]);
  for (const auto& st : stats) {
    EXPECT_EQ(st.groups, 6u);
    EXPECT_EQ(st.planner_passes, 5u);  // one per signature
    EXPECT_EQ(st.plan_rebuilds, 1u);   // the second closed group
    EXPECT_EQ(st.plan_cache_hits, 0u);
  }
}

TEST(PlanTemplate, PrepareLikeTemplateDecodesTheSamePlan) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  api::Simulator sim(circ, quiet_options());
  const std::vector<int> open = {1, 6};
  const std::vector<int> bits(9, 0);
  std::vector<int> other = bits;
  other[0] = 1;

  const api::PreparedPlan rep = sim.prepare(bits, open);
  const api::PlanTemplate tpl = rep.plan_template();
  ASSERT_TRUE(tpl.valid());
  EXPECT_EQ(tpl.open_qubits, open);
  EXPECT_FALSE(tpl.from_cache);
  EXPECT_EQ(tpl.plan_cache_key, rep.plan_cache_key());

  const api::PreparedPlan from_rep = sim.prepare_like(rep, other, open);
  const api::PreparedPlan from_tpl = sim.prepare_like(tpl, other, open);
  ASSERT_TRUE(from_rep.valid());
  ASSERT_TRUE(from_tpl.valid());
  EXPECT_EQ(from_tpl.plan_template().plan, tpl.plan);
  EXPECT_EQ(from_rep.plan_template().plan, tpl.plan);
  EXPECT_EQ(from_tpl.bits(), other);
  EXPECT_TRUE(from_tpl.plan_from_cache());

  // A different open set, or no plan at all, does not re-target.
  EXPECT_FALSE(sim.prepare_like(tpl, other, {1}).valid());
  EXPECT_FALSE(sim.prepare_like(api::PlanTemplate{}, other, open).valid());
  EXPECT_FALSE(api::PreparedPlan{}.plan_template().valid());
}

TEST(Engine, SinkThrowingOnFirstAnswerStartsNoPlanning) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  auto p = parse_queries(kSignatureMix, circ.num_qubits);
  ASSERT_TRUE(p.ok()) << p.error;
  runtime::SliceScheduler sched(2);
  auto opt = quiet_options();
  opt.scheduler = &sched;
  api::Simulator sim(circ, opt);

  struct Stop {};
  const uint64_t paths_before = path::find_path_invocations();
  EXPECT_THROW(Engine(sim, two_open()).run(p.queries, [](const QueryResult&) { throw Stop{}; }),
               Stop);
  // Only the first group's plan was made.
  EXPECT_EQ(path::find_path_invocations() - paths_before, 1u);
  EXPECT_EQ(sim.cache_stats().plan.misses, 1u);

  // The Simulator and its scheduler still serve a whole run, with the
  // answers and counts of a fresh one.
  std::vector<QueryResult> again, fresh;
  const auto st = Engine(sim, two_open()).run(p.queries, [&](const QueryResult& r) {
    again.push_back(r);
  });
  api::Simulator sim2(circ, quiet_options());
  const auto st2 = Engine(sim2, two_open()).run(p.queries, [&](const QueryResult& r) {
    fresh.push_back(r);
  });
  expect_same_stream(again, fresh);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(st.planner_passes, 4u);  // the closed plan came from the cache
  EXPECT_EQ(st.plan_cache_hits, 1u);
  EXPECT_EQ(st2.planner_passes, 5u);
}

TEST(Engine, SignatureAnsweredByCoveringBatchIsNeverPlanned) {
  const auto circ = test::small_rqc(3, 3, 4, 7);
  api::Simulator sim(circ, quiet_options());
  auto p1 = parse_queries("batch 0?0000?00\n", circ.num_qubits);
  ASSERT_TRUE(p1.ok());
  Engine(sim, EngineOptions{}).run(p1.queries, [](const QueryResult&) {});

  // The second file's batch is a subset of the cached {1, 6} batch (the
  // subset job of scripts/query_e2e.sh); only the amp needs a plan.
  auto p2 = parse_queries("amp 000000000\nbatch 0?0000000\n", circ.num_qubits);
  ASSERT_TRUE(p2.ok());
  const uint64_t paths_before = path::find_path_invocations();
  const uint64_t misses_before = sim.cache_stats().plan.misses;
  std::vector<QueryResult> results;
  const auto st = Engine(sim, EngineOptions{}).run(p2.queries, [&](const QueryResult& r) {
    results.push_back(r);
  });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(st.superset_hits, 1u);
  EXPECT_EQ(st.contractions, 1u);
  EXPECT_EQ(st.planner_passes, 1u);
  EXPECT_EQ(st.plan_rebuilds, 0u);
  EXPECT_EQ(path::find_path_invocations() - paths_before, 1u);
  EXPECT_EQ(sim.cache_stats().plan.misses - misses_before, 1u);
}

TEST(Engine, SecondRunOnOneSimulatorPlansNothing) {
  // More re-targeted groups than the plan LRU holds: rebuilt plans are not
  // filed, so they cannot evict the plan they were rebuilt from.
  const auto circ = test::small_rqc(3, 3, 4, 7);
  const int n_amps = 40;
  std::string text;
  for (int v = 0; v < n_amps; ++v) {
    text += "amp ";
    for (int q = 0; q < circ.num_qubits; ++q) text += char('0' + ((v >> q) & 1));
    text += "\n";
  }
  auto p = parse_queries(text, circ.num_qubits);
  ASSERT_TRUE(p.ok()) << p.error;
  auto opt = quiet_options();
  opt.cache.result_cache_entries = 0;  // every run contracts (and plans) again
  ASSERT_GT(size_t(n_amps - 1), opt.cache.plan_cache_entries);
  api::Simulator sim(circ, opt);

  std::vector<QueryResult> runs[2];
  EngineStats stats[2];
  for (int k = 0; k < 2; ++k)
    stats[k] = Engine(sim, EngineOptions{}).run(p.queries, [&](const QueryResult& r) {
      runs[k].push_back(r);
    });
  expect_same_stream(runs[0], runs[1]);
  EXPECT_EQ(stats[0].planner_passes, 1u);
  EXPECT_EQ(stats[0].plan_rebuilds, uint64_t(n_amps - 1));
  EXPECT_EQ(stats[1].planner_passes, 0u);
  EXPECT_EQ(stats[1].plan_cache_hits, 1u);
  EXPECT_EQ(stats[1].plan_rebuilds, uint64_t(n_amps - 1));
  const auto cs = sim.cache_stats().plan;
  EXPECT_EQ(cs.evictions, 0u);
  EXPECT_EQ(cs.insertions, 1u);
}

// --- v6 wire round-trips ---------------------------------------------------

TEST(Wire, QueryResultAndRecordRoundTrip) {
  QueryResult q;
  q.kind = QueryKind::kSample;
  q.id = 3;
  q.text = "sample 2 9 0??0";
  q.error = "";
  q.amplitudes = {{0.5, -0.25}, {-1.0, 2.0}};
  q.samples = {"0110", "0100"};
  q.expectation = -0.75;

  dist::ByteWriter w;
  dist::put_query_result(w, q);
  dist::ByteReader r(w.buffer());
  const auto back = dist::get_query_result(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.kind, q.kind);
  EXPECT_EQ(back.id, q.id);
  EXPECT_EQ(back.text, q.text);
  EXPECT_EQ(back.amplitudes, q.amplitudes);
  EXPECT_EQ(back.samples, q.samples);
  EXPECT_EQ(back.expectation, q.expectation);

  dist::JobResultRecord rec;
  rec.job_id = 42;
  rec.state = dist::JobState::kDone;
  rec.name = "qjob";
  rec.kind = "query";
  rec.query_results = {q, q};
  dist::ByteWriter w2;
  dist::put_result_record(w2, rec);
  dist::ByteReader r2(w2.buffer());
  const auto rb = dist::get_result_record(r2);
  EXPECT_TRUE(r2.exhausted());
  EXPECT_EQ(rb.kind, "query");
  ASSERT_EQ(rb.query_results.size(), 2u);
  EXPECT_EQ(rb.query_results[1].samples, q.samples);
}

TEST(Wire, JobOpenQubitsAndQuerySpecRoundTrip) {
  dist::Job j;
  j.job_id = 7;
  j.circuit_text = "ltnsqc v1\n";
  j.bits = "0000";
  j.open_qubits = {1, 3};
  dist::ByteWriter w;
  dist::put_job(w, j);
  dist::ByteReader r(w.buffer());
  const auto jb = dist::get_job(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(jb.open_qubits, j.open_qubits);
  EXPECT_EQ(jb.bits, j.bits);

  dist::JobSpec s;
  s.name = "q";
  s.kind = "query";
  s.query_text = "amp 0000\nbatch ?00?\n";
  s.max_open = 5;
  s.amp_mode = "grouped";
  dist::ByteWriter w2;
  dist::put_job_spec(w2, s);
  dist::ByteReader r2(w2.buffer());
  const auto sb = dist::get_job_spec(r2);
  EXPECT_TRUE(r2.exhausted());
  EXPECT_EQ(sb.kind, "query");
  EXPECT_EQ(sb.query_text, s.query_text);
  EXPECT_EQ(sb.max_open, 5);
  EXPECT_EQ(sb.amp_mode, "grouped");
}

}  // namespace
}  // namespace ltns::query

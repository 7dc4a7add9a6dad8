// Content-addressed plan & result cache.
//
// Path optimization (src/path/: greedy + partition trials + local tune)
// dominates small-job latency and is recomputed for every identical query
// and every identical service submission. Both caches here are keyed by an
// FNV-1a fingerprint of the job INPUTS — circuit text, output bits, open
// qubits, and every plan knob — hashed with the same dist::fnv1a_hex the
// checkpoint journal's run fingerprint uses. The input key is usable
// BEFORE planning (the journal's run_fingerprint hashes the resolved path
// and so cannot front a plan lookup), and because make_plan is
// deterministic in its inputs, equal input keys imply equal resolved plans
// and — by the bitwise-determinism contract — equal result bytes across
// executors, ISA tiers and process counts.
//
// Each cache is a two-tier store: an in-memory LRU of serialized entries in
// front of an optional on-disk directory (`--cache-dir`). Entries are
// ByteWriter payloads behind the same magic/version/endian header
// discipline as result.bin and the journal, plus a CRC — a truncated or
// corrupt entry is dropped (and unlinked) and the value recomputed, never
// trusted. Disk writes are tmp+rename so readers only ever see whole
// entries.
//
// A plan-cache hit rebuilds the ContractionTree from the stored SSA path
// over the caller's freshly lowered network (cheap, deterministic) and
// re-adds the stored sliced edges — src/path/ and the slicers never run,
// and the rebuilt plan is identical to the one that was stored, so a warm
// run's output is byte-identical to the cold run that populated it.
#pragma once

#include <complex>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/telemetry.hpp"
#include "cache/options.hpp"
#include "core/planner.hpp"
#include "exec/simd_kernels.hpp"
#include "tn/tensor_network.hpp"

namespace ltns::cache {

// Entry-file header constants, mirroring result.bin / ledger.journal.
// v2: plan payloads carry the portable plan blob (encode_plan) behind the
// key; batch payloads gain the entry's base bits (covering-batch probes).
// Old entries fail the version check, are dropped and recomputed.
inline constexpr uint32_t kCacheMagic = 0x4C544E43u;  // "LTNC"
inline constexpr uint16_t kCacheVersion = 2;

// Content-addressed keys (16-char FNV-1a hex). `bits` is the '0'/'1'
// output bitstring, `open_qubits` a textual open-qubit list ("" when
// closed) — the same canonical forms dist::run_fingerprint takes.
std::string plan_key(const std::string& circuit_text, const std::string& bits,
                     const std::string& open_qubits, const core::PlanOptions& plan);

// The result key extends the plan key's preimage with the execution knobs
// that select WHICH numbers are computed (fused stem windows and the LDM
// capacity change the kernel schedule, not just its speed; bf16 GEMM
// precision changes the numbers themselves). Executor, ISA tier and
// process count are deliberately absent: every tier is bitwise identical,
// so one cached result serves them all. fp32 keys leave the precision out
// of the preimage, so stores written without it stay valid.
std::string result_key(const std::string& circuit_text, const std::string& bits,
                       const std::string& open_qubits, const core::PlanOptions& plan, bool fused,
                       uint64_t ldm_elems, exec::Precision precision);

// One LRU+disk tier of serialized entries. Shared by both caches; public
// mostly for tests, which exercise eviction order and corruption handling
// directly against it.
class TieredStore {
 public:
  // `kind` tags the entry header (plans and results must never deserialize
  // as each other even if a file is copied across subdirectories);
  // `subdir` is the directory under cache_dir ("" = cache_dir itself).
  TieredStore(const CacheOptions& opt, uint8_t kind, std::string subdir, size_t max_entries);

  // Memory tier first, then disk (a disk hit is promoted into the LRU).
  // False on miss; a corrupt disk entry counts corrupt_dropped, is
  // unlinked (unless read-only) and reported as a miss.
  bool get(const std::string& key, std::vector<uint8_t>* payload);
  // Inserts into the LRU and (unless read-only or diskless) persists via
  // tmp+rename. Re-inserting an existing key refreshes it.
  void put(const std::string& key, std::vector<uint8_t> payload);

  bool enabled() const { return max_entries_ > 0; }
  TierStats stats() const;

 private:
  std::string file_path(const std::string& key) const;
  bool read_disk(const std::string& key, std::vector<uint8_t>* payload);
  void write_disk(const std::string& key, const std::vector<uint8_t>& payload);
  void insert_memory(const std::string& key, std::vector<uint8_t> payload);

  std::string dir_;  // "" = no disk tier
  uint8_t kind_ = 0;
  size_t max_entries_ = 0;
  bool read_only_ = false;
  mutable std::mutex mu_;
  // LRU: most recent at the front; lookup map points into the list.
  std::list<std::pair<std::string, std::vector<uint8_t>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  uint64_t memory_bytes_ = 0;
  TierStats stats_;
};

// Portable form of a resolved plan: SSA path + sliced edges + metrics +
// method — everything EXCEPT the network-pointing derived structures
// (ContractionTree/Stem/SliceSet), which decode_plan rebuilds over the
// caller's network. Because lowering is value-blind (the network structure
// is identical across output bit VALUES at the same open positions), a
// plan encoded against one bitstring decodes against any other with the
// same open set — api::Simulator::prepare_like re-targets plans this way,
// so a query run plans each open-set signature exactly once.
std::vector<uint8_t> encode_plan(const core::Plan& plan);

// Rebuilds the encoded plan over `net` (freshly lowered + simplified).
// False when the payload is corrupt or does not fit `net` — callers
// recompute; never aborts.
bool decode_plan(const std::vector<uint8_t>& payload, const tn::TensorNetwork& net,
                 core::Plan* out);

// Serialized resolved plan: a key preamble plus the encode_plan blob.
// The ContractionTree/Stem/SliceSet are NOT stored — they hold pointers
// into one specific TensorNetwork and are rebuilt deterministically over
// the caller's network on every hit.
class PlanCache {
 public:
  explicit PlanCache(const CacheOptions& opt);

  // Rebuilds the cached plan over `net` (the caller's freshly lowered +
  // simplified network). False on miss; an entry whose path or slice set
  // does not validate against `net` is treated as corrupt and recomputed.
  bool lookup(const std::string& key, const tn::TensorNetwork& net, core::Plan* out);
  void insert(const std::string& key, const core::Plan& plan);

  bool enabled() const { return store_.enabled(); }
  TierStats stats() const { return store_.stats(); }

 private:
  TieredStore store_;
};

// The cached form of one completed amplitude run — everything a repeated
// query (or a duplicate service submission) needs to answer without
// contraction, including the full telemetry tail so a served result is
// indistinguishable from the run that produced it.
struct AmplitudeEntry {
  std::complex<double> amplitude{0, 0};
  int32_t num_slices = 0;
  core::SlicedMetrics slicing;
  uint64_t tasks_run = 0;
  double wall_seconds = 0;
  api::RunTelemetry telemetry;
};

struct BatchEntry {
  std::vector<std::complex<double>> amplitudes;
  std::vector<int> open_qubits;
  // The closed qubits' bit values (full-length; open positions zeroed).
  // Lets find_covering_batch decide whether this batch covers a request.
  std::vector<int> base_bits;
  core::SlicedMetrics slicing;
  api::RunTelemetry telemetry;
};

class ResultCache {
 public:
  explicit ResultCache(const CacheOptions& opt);

  bool lookup_amplitude(const std::string& key, AmplitudeEntry* out);
  void insert_amplitude(const std::string& key, const AmplitudeEntry& e);
  // `scope` fingerprints everything the result key hashes BESIDES the bits
  // and open qubits (circuit + plan + exec knobs) and feeds the in-memory
  // covering-batch index; "" skips indexing. Hits and inserts both index,
  // so a cold process warms the index through its first exact lookups.
  bool lookup_batch(const std::string& key, BatchEntry* out, const std::string& scope = {});
  void insert_batch(const std::string& key, const BatchEntry& e, const std::string& scope = {});

  // Probes the index for a batch in `scope` whose open set is a superset
  // of `open_qubits` and whose base bits agree with `bits` outside it; the
  // caller slices its answer out (query::restrict_amplitudes). An exact
  // match can be returned too — compare out->open_qubits to distinguish;
  // only proper supersets count toward superset_hits().
  bool find_covering_batch(const std::string& scope, const std::vector<int>& bits,
                           const std::vector<int>& open_qubits, BatchEntry* out);
  uint64_t superset_hits() const;

  bool enabled() const { return amps_.enabled(); }
  TierStats stats() const;

 private:
  void index_batch(const std::string& key, const std::string& scope,
                   const std::vector<int>& base_bits, const std::vector<int>& open_qubits);

  // Amplitudes and batches are distinct entry kinds in one keyspace (the
  // key already encodes the open-qubit list, so they cannot collide; the
  // header kind is belt-and-braces).
  TieredStore amps_;
  TieredStore batches_;
  // Covering-batch index: which (base_bits, open_qubits) each known batch
  // key answers, per scope. Process-local (the disk tier has no scan);
  // bounded FIFO, newest matches win.
  struct BatchIndexEntry {
    std::string key, scope;
    std::vector<int> base_bits, open_qubits;
  };
  mutable std::mutex index_mu_;
  std::vector<BatchIndexEntry> batch_index_;
  uint64_t superset_hits_ = 0;
};

// Option coherence for the cache group, shared by validate_options and the
// server front door. Returns the error text, "" when coherent.
std::string validate_cache_options(const CacheOptions& opt);

}  // namespace ltns::cache

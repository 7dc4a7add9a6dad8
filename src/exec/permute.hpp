// Tensor permutation kernels (§5.1, §5.3.1).
//
// Permutations sit before every fused contraction step and are one of the
// hot spots of the TTGT pipeline. Three strategies, mirroring the paper's
// discussion:
//   * naive      — in-situ index computation per element, O(N·rank) time,
//                  O(1) extra space;
//   * mapped     — a map from output block to input offset, applied as a
//                  gather;
//   * reduced    — the paper's recursion-formula map reduction: when the
//                  last m axes are unpermuted, elements move in contiguous
//                  blocks of 2^m and the map only addresses the N / 2^m
//                  leading blocks, each copied with a memcpy.
//
// The map is never materialized. An input offset is the OR of one
// contribution per output bit, so it factors over any split of the output
// block index o: in(o) = hi[o >> h] + lo[o & (2^h - 1)]. PermuteMap keeps
// only those two tables, 2^floor(lead/2) + 2^ceil(lead/2) entries for
// 2^lead blocks, so building one costs O(sqrt(N)) and every permute is O(N)
// data movement.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/tensor.hpp"

namespace ltns::exec {

struct PermuteStats {
  size_t elements = 0;
  size_t map_entries = 0;   // logical map size: output blocks addressed
  size_t block_elems = 1;   // contiguous copy granularity
};

// out axis j takes in axis perm[j]; returns the permutation or aborts if
// new_ixs is not a permutation of t.ixs().
std::vector<int> permutation_between(const std::vector<int>& from_ixs,
                                     const std::vector<int>& to_ixs);

// Reference implementation (naive).
Tensor permute_naive(const Tensor& t, const std::vector<int>& new_ixs);

// Factored §5.3.1 map: output block o = (x << h) | y reads input offset
// hi[x] + lo[y]. Built per call; setup is O(sqrt(N)).
class PermuteMap {
 public:
  PermuteMap(const std::vector<int>& perm, int rank);

  int rank() const { return rank_; }
  // Output blocks the map addresses (2^lead), not what is stored.
  size_t map_entries() const { return rows() * row_len(); }
  // Offsets materialized: the hi and lo tables together.
  size_t table_entries() const { return table_.size(); }
  size_t block_elems() const { return size_t(1) << block_axes_; }
  int block_axes() const { return block_axes_; }
  // Row x of the output (row_len() blocks) reads input offsets
  // hi()[x] + lo()[y]; the vectorized apply in simd_kernels gathers each
  // row from base in + hi()[x] with index table lo().
  size_t rows() const { return table_.size() - lo_len_; }
  size_t row_len() const { return lo_len_; }
  const uint32_t* hi() const { return table_.data() + lo_len_; }
  const uint32_t* lo() const { return table_.data(); }

  // out must have 2^rank elements.
  void apply(const cfloat* in, cfloat* out) const;

 private:
  int rank_;
  int block_axes_;              // trailing unpermuted axes, moved as one block
  size_t lo_len_;               // 2^h
  std::vector<uint32_t> table_; // lo (2^h entries) then hi
};

// Fast path used by the contraction planner: builds the factored map and
// applies it. Identity permutations are returned as plain copies.
Tensor permute(const Tensor& t, const std::vector<int>& new_ixs, PermuteStats* stats = nullptr);

}  // namespace ltns::exec

#include "exec/permute.hpp"

#include <cassert>
#include <cstring>

namespace ltns::exec {

std::vector<int> permutation_between(const std::vector<int>& from_ixs,
                                     const std::vector<int>& to_ixs) {
  assert(from_ixs.size() == to_ixs.size());
  std::vector<int> perm(to_ixs.size());
  for (size_t j = 0; j < to_ixs.size(); ++j) {
    int found = -1;
    for (size_t d = 0; d < from_ixs.size(); ++d)
      if (from_ixs[d] == to_ixs[j]) {
        found = int(d);
        break;
      }
    assert(found >= 0 && "to_ixs is not a permutation of from_ixs");
    perm[j] = found;
  }
  return perm;
}

Tensor permute_naive(const Tensor& t, const std::vector<int>& new_ixs) {
  auto perm = permutation_between(t.ixs(), new_ixs);
  const int r = t.rank();
  Tensor out(new_ixs);
  // srcpos[p] = bit position in the input of the axis feeding output bit p.
  std::vector<int> srcpos(static_cast<size_t>(r), 0);
  for (int j = 0; j < r; ++j) srcpos[size_t(r - 1 - j)] = r - 1 - perm[size_t(j)];
  const size_t n = t.size();
  for (size_t o = 0; o < n; ++o) {
    size_t in = 0;
    for (int p = 0; p < r; ++p) in |= ((o >> p) & 1) << srcpos[size_t(p)];
    out.data()[o] = t.data()[in];
  }
  return out;
}

PermuteMap::PermuteMap(const std::vector<int>& perm, int rank) : rank_(rank) {
  // Trailing axes with perm[j] == j move as one contiguous block — this is
  // the §5.3.1 reduction: the map only addresses the leading axes.
  int m = 0;
  while (m < rank && perm[size_t(rank - 1 - m)] == rank - 1 - m) ++m;
  block_axes_ = m;
  const int lead = rank - m;
  const int h = lead - lead / 2;
  lo_len_ = size_t(1) << h;
  table_.resize(lo_len_ + (size_t(1) << (lead - h)));
  // Leading out bit p reads in bit rank-1-perm[lead-1-p]. A table over out
  // bits [p0, p0+bits) doubles once per bit: the entries with bit q set
  // are the ones below it plus q's contribution.
  auto fill = [&](uint32_t* t, int p0, int bits) {
    t[0] = 0;
    for (int q = 0; q < bits; ++q) {
      const uint32_t c = uint32_t(1) << (rank - 1 - perm[size_t(lead - 1 - (p0 + q))]);
      const size_t half = size_t(1) << q;
      for (size_t i = 0; i < half; ++i) t[half + i] = t[i] | c;
    }
  };
  fill(table_.data(), 0, h);
  fill(table_.data() + lo_len_, h, lead - h);
}

void PermuteMap::apply(const cfloat* in, cfloat* out) const {
  const size_t block = block_elems();
  const uint32_t* l = lo();
  for (size_t x = 0; x < rows(); ++x) {
    const cfloat* src = in + hi()[x];
    if (block == 1) {
      for (size_t y = 0; y < lo_len_; ++y) out[y] = src[l[y]];
    } else {
      for (size_t y = 0; y < lo_len_; ++y)
        std::memcpy(out + y * block, src + l[y], block * sizeof(cfloat));
    }
    out += lo_len_ * block;
  }
}

Tensor permute(const Tensor& t, const std::vector<int>& new_ixs, PermuteStats* stats) {
  if (t.ixs() == new_ixs) {
    if (stats) {
      stats->elements = t.size();
      stats->map_entries = 0;
      stats->block_elems = t.size();
    }
    return t;
  }
  auto perm = permutation_between(t.ixs(), new_ixs);
  PermuteMap map(perm, t.rank());
  Tensor out(new_ixs);
  map.apply(t.raw(), out.raw());
  if (stats) {
    stats->elements = t.size();
    stats->map_entries = map.map_entries();
    stats->block_elems = map.block_elems();
  }
  return out;
}

}  // namespace ltns::exec

#include "exec/contract.hpp"

#include <algorithm>
#include <cassert>

#include "device/cpu_probe.hpp"
#include "device/stats.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

ContractPlan plan_contract(const std::vector<int>& a_ixs, const std::vector<int>& b_ixs) {
  ContractPlan p;
  auto in_b = [&](int e) { return std::find(b_ixs.begin(), b_ixs.end(), e) != b_ixs.end(); };
  auto in_a = [&](int e) { return std::find(a_ixs.begin(), a_ixs.end(), e) != a_ixs.end(); };

  std::vector<int> keep_a, keep_b;
  for (int e : a_ixs) (in_b(e) ? p.shared : keep_a).push_back(e);
  for (int e : b_ixs)
    if (!in_a(e)) keep_b.push_back(e);

  p.a_order = keep_a;
  p.a_order.insert(p.a_order.end(), p.shared.begin(), p.shared.end());
  p.b_order = p.shared;
  p.b_order.insert(p.b_order.end(), keep_b.begin(), keep_b.end());
  p.out_ixs = keep_a;
  p.out_ixs.insert(p.out_ixs.end(), keep_b.begin(), keep_b.end());
  p.m = 1 << keep_a.size();
  p.n = 1 << keep_b.size();
  p.k = 1 << p.shared.size();
  p.a_identity = (p.a_order == a_ixs);
  p.b_identity = (p.b_order == b_ixs);
  return p;
}

Tensor contract(const Tensor& a, const Tensor& b, ThreadPool* pool, ContractStats* stats,
                Precision prec, device::DeviceStats* dstats) {
  ContractPlan p = plan_contract(a.ixs(), b.ixs());
  const IsaTier tier = device::cpu_probe().active;

  const Tensor* ap = &a;
  const Tensor* bp = &b;
  Tensor a_tmp, b_tmp;
  if (!p.a_identity || !p.b_identity) {
    ScopedSeconds st(stats != nullptr ? &stats->permute_seconds : nullptr);
    obs::TraceScope tr(obs::EventKind::kPermute,
                       (!p.a_identity ? a.size() : 0) + (!p.b_identity ? b.size() : 0));
    if (!p.a_identity) {
      a_tmp = permute_simd(tier, a, p.a_order);
      ap = &a_tmp;
      if (stats) stats->permute_elems += double(a.size());
      if (dstats) dstats->permute_calls += 1;
    }
    if (!p.b_identity) {
      b_tmp = permute_simd(tier, b, p.b_order);
      bp = &b_tmp;
      if (stats) stats->permute_elems += double(b.size());
      if (dstats) dstats->permute_calls += 1;
    }
  }

  Tensor out(p.out_ixs);
  {
    ScopedSeconds st(stats != nullptr ? &stats->gemm_seconds : nullptr);
    obs::TraceScope tr(obs::EventKind::kGemm, uint64_t(p.m) * uint64_t(p.n), uint64_t(p.k));
    SimdPackStats pack;
    cgemm_simd(tier, prec, p.m, p.n, p.k, ap->raw(), bp->raw(), out.raw(), pool, &pack);
    if (pack.bytes > 0) obs::trace_instant(obs::EventKind::kDeviceUpload, uint64_t(pack.bytes));
    if (dstats) {
      dstats->gemm_calls += 1;
      dstats->bytes_to_device += pack.bytes;  // plane packing is the staging copy
      dstats->ns_to_device += pack.ns;
      dstats->uploads += pack.packs;
    }
  }
  if (stats) stats->flops += gemm_flops(p.m, p.n, p.k);
  return out;
}

Tensor contract_naive(const Tensor& a, const Tensor& b) {
  ContractPlan p = plan_contract(a.ixs(), b.ixs());
  assert(a.rank() + b.rank() < 26 && "contract_naive is for small tensors");
  Tensor out(p.out_ixs);

  const int ra = a.rank(), rb = b.rank(), ro = out.rank(), rs = int(p.shared.size());
  std::vector<int> abits(static_cast<size_t>(ra), 0), bbits(static_cast<size_t>(rb), 0),
      obits(static_cast<size_t>(ro), 0), sbits(static_cast<size_t>(rs), 0);
  const size_t n_out = out.size();
  const size_t n_sum = size_t(1) << rs;
  for (size_t o = 0; o < n_out; ++o) {
    for (int d = 0; d < ro; ++d) obits[size_t(d)] = int((o >> (ro - 1 - d)) & 1);
    std::complex<double> acc{0, 0};
    for (size_t s = 0; s < n_sum; ++s) {
      for (int d = 0; d < rs; ++d) sbits[size_t(d)] = int((s >> (rs - 1 - d)) & 1);
      auto bit_for = [&](int e) {
        for (int d = 0; d < rs; ++d)
          if (p.shared[size_t(d)] == e) return sbits[size_t(d)];
        for (int d = 0; d < ro; ++d)
          if (out.ixs()[size_t(d)] == e) return obits[size_t(d)];
        assert(false);
        return 0;
      };
      for (int d = 0; d < ra; ++d) abits[size_t(d)] = bit_for(a.ixs()[size_t(d)]);
      for (int d = 0; d < rb; ++d) bbits[size_t(d)] = bit_for(b.ixs()[size_t(d)]);
      acc += std::complex<double>(a.at(abits)) * std::complex<double>(b.at(bbits));
    }
    out.data()[o] = cfloat(acc);
  }
  return out;
}

}  // namespace ltns::exec

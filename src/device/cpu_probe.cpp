#include "device/cpu_probe.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace ltns::device {

namespace {

using exec::IsaTier;

IsaTier detect_isa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return IsaTier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return IsaTier::kAvx2;
  return IsaTier::kPortable;
#elif defined(__aarch64__)
  return IsaTier::kNeon;  // NEON is architectural on aarch64
#else
  return IsaTier::kPortable;
#endif
}

// Clamp a requested tier to what this build + hardware can actually run:
// x86 tiers degrade avx512 -> avx2 -> portable, neon degrades to portable
// off-arm. Forcing DOWN from the detected tier is always honored (that is
// the point of the override).
IsaTier clamp_to_hardware(IsaTier want, IsaTier detected) {
  if (want == IsaTier::kPortable) return IsaTier::kPortable;
  if (want == IsaTier::kNeon) return detected == IsaTier::kNeon ? want : IsaTier::kPortable;
  if (detected == IsaTier::kNeon) return IsaTier::kPortable;  // x86 tier on arm
  // avx512 > avx2 > portable on the x86 chain.
  return int(want) <= int(detected) ? want : detected;
}

CpuProbe resolve_probe() {
  CpuProbe p;
  p.detected = detect_isa();
  p.active = p.detected;
  const char* env = std::getenv("LTNS_FORCE_ISA");
  if (env == nullptr || *env == '\0') return p;
  const std::string v(env);
  if (v == "off" || v == "auto") return p;
  IsaTier want;
  if (v == "portable")
    want = IsaTier::kPortable;
  else if (v == "avx2")
    want = IsaTier::kAvx2;
  else if (v == "avx512")
    want = IsaTier::kAvx512;
  else if (v == "neon")
    want = IsaTier::kNeon;
  else
    throw std::invalid_argument("LTNS_FORCE_ISA='" + v +
                                "' is not a tier; use portable, avx2, avx512 or neon");
  p.active = clamp_to_hardware(want, p.detected);
  p.forced = true;
  return p;
}

}  // namespace

const CpuProbe& cpu_probe() {
  static const CpuProbe probe = resolve_probe();
  return probe;
}

std::string probe_isa_label() {
  const CpuProbe& p = cpu_probe();
  std::string label = exec::isa_name(p.active);
  if (p.forced) label += " (LTNS_FORCE_ISA)";
  return label;
}

}  // namespace ltns::device

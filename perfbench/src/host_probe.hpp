// Host-speed probe: a fixed piece of bench-side work whose time tracks how
// fast the shared host runs this process at the moment.
//
// On a shared host the same single-threaded, deterministic planner pass
// takes anywhere from 1.4 s to 2.1 s from one minute to the next, with
// negligible steal time: the vCPU runs all the time but runs slower
// (frequency, SMT siblings, cache and memory contention from other
// tenants). Runs a few minutes apart then differ by more than any bound a
// regression check could use. The probe sees the same slowdown, so the
// benchmark times each pass right after probing the host and scales the
// pass's wall seconds by (the probe's reference time) / (its time now):
// the time the pass would have taken on a host where the probe takes its
// reference time. The probe is not program code, so a change to the
// program moves the scaled time exactly as it moves the wall time.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace perfbench {

// The probes' median times on the 4-vCPU host the benchmark was tuned on
// (Intel Xeon, 2.1 GHz, avx512, gcc 12.2, Release): probe_compute on each
// of 4 threads at once, and probe_compute plus probe_memory on one thread.
// They only set the scale of the reported seconds; comparisons never
// depend on them.
constexpr double kReferenceComputeSeconds = 0.045;
constexpr double kReferenceOneThreadSeconds = 0.075;

// ---------------------------------------------------------------------------
// Peak memory without the probe. The probe maps its scratch memory for each
// sample and unmaps it after. Before a sample the process's peak so far
// (VmHWM) is kept; after it the kernel's peak is reset to the current
// resident size (clear_refs 5), so the probe's memory never counts.

inline double vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  throw std::runtime_error("cannot read VmHWM from /proc/self/status");
}

inline double& peak_before_probes_kib() {
  static double kib = 0;
  return kib;
}

inline void reset_peak_rss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) throw std::runtime_error("cannot reset VmHWM");
  if (!ok) throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
}

// This process's peak resident set in KiB, leaving out the probe's samples.
inline double peak_rss_outside_probe_kib() {
  return std::max(peak_before_probes_kib(), vm_hwm_kib());
}

// ---------------------------------------------------------------------------
// The probe's work.

// Scratch memory of one probe thread for one sample, mapped on entry and
// unmapped on exit.
class Scratch {
 public:
  explicit Scratch(size_t bytes) : bytes_(bytes) {
    base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) throw std::runtime_error("host probe: mmap failed");
  }
  ~Scratch() { munmap(base_, bytes_); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  template <class T>
  T* take(size_t count) {
    T* p = reinterpret_cast<T*>(static_cast<char*>(base_) + used_);
    used_ += (count * sizeof(T) + 63) / 64 * 64;
    if (used_ > bytes_) throw std::runtime_error("host probe: scratch too small");
    return p;
  }

 private:
  size_t bytes_, used_ = 0;
  void* base_;
};

struct ProbeRng {
  uint64_t x;
  uint64_t operator()() {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    return x;
  }
};

// About 40 ms of one thread on cache-resident data: a split-complex fp32
// matrix product (the contraction kernels' arithmetic) and open-addressing
// hash inserts plus a sort (the planner's branchy integer work).
inline uint64_t probe_compute(uint64_t seed) {
  constexpr int n = 64, reps = 24, keys = 1 << 14, slots = 1 << 15;
  Scratch mem(6 * n * n * sizeof(float) + keys * sizeof(uint64_t) + slots * sizeof(uint32_t) +
              64 * 8);
  float *ar = mem.take<float>(n * n), *ai = mem.take<float>(n * n);
  float *br = mem.take<float>(n * n), *bi = mem.take<float>(n * n);
  float *cr = mem.take<float>(n * n), *ci = mem.take<float>(n * n);
  uint64_t* v = mem.take<uint64_t>(keys);
  uint32_t* table = mem.take<uint32_t>(slots);
  ProbeRng next{seed * 0x9E3779B97F4A7C15ull + 1};
  for (int i = 0; i < n * n; ++i) {
    ar[i] = float(next() % 1000) * 1e-3f, ai[i] = float(next() % 1000) * 1e-3f;
    br[i] = float(next() % 1000) * 1e-3f, bi[i] = float(next() % 1000) * 1e-3f;
    cr[i] = ci[i] = 0;
  }
  for (int r = 0; r < reps; ++r)
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const float a = ar[i * n + k], b = ai[i * n + k];
        for (int j = 0; j < n; ++j) {
          cr[i * n + j] += a * br[k * n + j] - b * bi[k * n + j];
          ci[i * n + j] += a * bi[k * n + j] + b * br[k * n + j];
        }
      }
  uint64_t acc = 0;
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < keys; ++i) v[i] = next();
    std::fill(table, table + slots, 0);
    for (int i = 0; i < keys; ++i) {
      const uint32_t key = uint32_t(v[i] | 1);
      uint32_t h = uint32_t((v[i] * 0xff51afd7ed558ccdull) >> 49);
      while (table[h] != 0 && table[h] != key) h = (h + 1) & (slots - 1);
      table[h] = key;
    }
    std::sort(v, v + keys);
    acc += v[77];
  }
  return acc + uint64_t(cr[5] + ci[7]);
}

// About 30 ms of dependent loads through 8 MiB: a random cyclic permutation
// (Sattolo's shuffle) followed through 2^19 steps. Planning chases pointers
// through structures larger than the caches, and slows down more than
// cache-resident work when other tenants load the host's caches and memory.
inline uint64_t probe_memory(uint64_t seed) {
  constexpr uint32_t n = 1u << 21, steps = 1u << 19;
  Scratch mem(n * sizeof(uint32_t));
  uint32_t* next_of = mem.take<uint32_t>(n);
  for (uint32_t i = 0; i < n; ++i) next_of[i] = i;
  ProbeRng rng{seed * 0xD1B54A32D192ED03ull + 1};
  for (uint32_t i = n - 1; i > 0; --i) std::swap(next_of[i], next_of[rng() % i]);
  uint32_t p = 0;
  for (uint32_t s = 0; s < steps; ++s) p = next_of[p];
  return p;
}

// 0 for no samples: a run whose passes all failed still reports.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Probe samples of one run, for one thread count: the count the timed work
// keeps busy. The one-thread probe (planning) adds probe_memory to
// probe_compute; the probe of the contraction threads runs probe_compute
// alone, since the kernels work on cache-sized tensors.
class HostProbe {
 public:
  explicit HostProbe(int threads) : threads_(size_t(std::max(1, threads))) {}

  // Samples the probe `times` times and returns the reference time over
  // the median of those samples: the factor that turns the next timed
  // pass's wall seconds into reference seconds.
  double factor(int times) {
    std::vector<double> now;
    for (int i = 0; i < times; ++i) now.push_back(sample());
    return (threads_ == 1 ? kReferenceOneThreadSeconds : kReferenceComputeSeconds) / median(now);
  }

  // Median of every sample of the run, for the record.
  double median_seconds() const { return median(times_); }

 private:
  // Runs the probe once on every thread at the same time and returns their
  // mean time. The mean, not the slowest thread, so that one thread started
  // late does not count as a slow host.
  double sample() {
    double& kept = peak_before_probes_kib();
    kept = std::max(kept, vm_hwm_kib());
    std::vector<double> took(threads_, 0);
    auto one = [this, &took](size_t t) {
      const double t0 = now_seconds();
      sink_ += probe_compute(t + 1);
      if (threads_ == 1) sink_ += probe_memory(t + 1);
      took[t] = now_seconds() - t0;
    };
    if (threads_ == 1) {
      one(0);
    } else {
      std::vector<std::thread> pool;
      for (size_t t = 0; t < threads_; ++t) pool.emplace_back(one, t);
      for (auto& th : pool) th.join();
    }
    reset_peak_rss();
    double sum = 0;
    for (double t : took) sum += t;
    times_.push_back(sum / double(threads_));
    return times_.back();
  }

  size_t threads_;
  std::vector<double> times_;
  std::atomic<uint64_t> sink_{0};  // keeps the probe's work from being optimized away
};

// The times of one quantity over a run's passes, in wall seconds and in
// reference seconds.
struct Timing {
  std::vector<double> wall, scaled;

  // `factor` is the HostProbe::factor taken just before the pass.
  void add(double wall_seconds, double factor) {
    wall.push_back(wall_seconds);
    scaled.push_back(wall_seconds * factor);
  }
};

}  // namespace perfbench

// Length-prefixed wire protocol for the multi-process shard driver.
//
// Every message is one frame: a fixed header {magic, version, endianness,
// type, payload_len} followed by payload_len bytes. Payloads are built with
// ByteWriter/ByteReader, which memcpy PODs field by field — floats and
// doubles travel as their raw bit patterns, so a tensor or telemetry block
// round-trips BIT-EXACTLY (the property the cross-process reduction relies
// on). That makes the format arch-specific by design; the header's
// endianness byte turns a heterogeneous-fleet mistake into a clean
// "endianness mismatch" error instead of silently garbled floats, and the
// version field rejects skewed binaries.
//
// Reader behaviour on a dead peer: read_frame returns false on a clean EOF
// at a frame boundary and throws std::runtime_error on a truncated frame or
// corrupt header — so a killed worker surfaces as an error, never a hang
// (the socket closes with the process).
//
// These serializers are also ON-DISK ABI: the durable run ledger
// (dist/checkpoint.hpp) journals completed ranges with put_tensor /
// ByteWriter framing, so a checkpoint written by one build replays
// bit-exactly under the same rules the sockets enforce (same-arch,
// same-endian — the journal header carries the same endianness marker).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "exec/tensor.hpp"
#include "exec/tree_executor.hpp"
#include "runtime/executor_stats.hpp"
#include "runtime/memory_stats.hpp"

namespace ltns::dist {

inline constexpr uint32_t kWireMagic = 0x4C544E53u;  // "LTNS"
// v2: endian-tagged header + the elastic lease/heartbeat frame vocabulary.
// v3: DeviceStats in exec-stats/snapshot payloads, backend name in
//     telemetry and heartbeat frames (heterogeneous device fleets).
// v4: WorkerPulse after the backend name in heartbeat payloads (live
//     per-worker metrics), trace flag in Job, kTrace frame (trace-buffer
//     chunks shipped before the final telemetry).
// v5: the multi-tenant job service (dist/server.hpp). Job grew a job_id
//     head field; new control frames kSubmit/kSubmitReply/kJobStatus/
//     kCancel/kFetchResult/kResult/kServerReply/kShutdown (client API) and
//     kWelcome/kJobLease (fleet workers multiplexing leases across
//     concurrent jobs).
// v6: the batched query engine (src/query/). Job grew an open-qubit list
//     (workers contract rank-|open| batch shards); JobSpec grew
//     kind/query_text/max_open/amp_mode (kind "query" submits a whole
//     query file as one job); JobResultRecord grew kind + the per-query
//     result list. All appended at the end of their payloads.
// v7: mixed precision. JobSpec grew a `precision` tail field ("fp32" |
//     "bf16"); the server folded it into the "name[+precision]" backend
//     spec string Job carried.
// v8: one kernel path. Job's backend-spec string became its GEMM
//     `precision` ("fp32" | "bf16"); the string that ShardTelemetry and
//     heartbeat payloads carried as the backend name is now the ISA tier
//     the worker's kernels ran at ("avx512", "portable", ...). Payload
//     layouts are unchanged; v7 binaries are refused by the version check.
inline constexpr uint16_t kWireVersion = 8;

// Header endianness markers; read_frame rejects a frame whose marker does
// not match the host's.
inline constexpr uint8_t kWireEndianLittle = 1;
inline constexpr uint8_t kWireEndianBig = 2;

inline uint8_t host_endian() {
  const uint32_t probe = 1;
  uint8_t low = 0;
  std::memcpy(&low, &probe, 1);
  return low == 1 ? kWireEndianLittle : kWireEndianBig;
}

enum class FrameType : uint8_t {
  kHello = 1,      // worker -> coordinator: protocol version
  kJob = 2,        // coordinator -> worker: circuit + plan options + window
  kBlock = 3,      // worker -> coordinator: one aligned-block partial tensor
  kTelemetry = 4,  // worker -> coordinator: per-shard telemetry
  kDone = 5,       // worker -> coordinator: shard finished cleanly
  kError = 6,      // either direction: human-readable failure
  // Elastic mode (see dist/elastic.hpp): workers lease bounded task ranges
  // instead of receiving one fixed window.
  kLeaseRequest = 7,   // worker -> coordinator: idle, wants a range
  kLease = 8,          // coordinator -> worker: {lease id, first, count}
  kLeaseBlock = 9,     // worker -> coordinator: kBlock + the lease id tag
  kRangeDone = 10,     // worker -> coordinator: lease's blocks all shipped
  kHeartbeat = 11,     // worker -> coordinator: liveness while computing
  kDrain = 12,         // coordinator -> worker: no work left; report + exit
  kStatusRequest = 13, // status probe -> coordinator: dump live state
  kStatus = 14,        // coordinator -> status probe: JSON snapshot
  kTrace = 15,         // worker -> coordinator: serialized trace-buffer chunk
  // Multi-tenant job service (v5, dist/server.hpp). Client control plane:
  kSubmit = 16,       // client -> server: JobSpec (queue a named job)
  kSubmitReply = 17,  // server -> client: {ok, job_id, message}
  kJobStatus = 18,    // client -> server: job id (0 = whole-server view);
                      //   the server answers with a kStatus JSON frame
  kCancel = 19,       // client -> server: job id to cancel
  kFetchResult = 20,  // client -> server: {job id, wait flag}
  kResult = 21,       // server -> client: terminal JobResultRecord
  kServerReply = 22,  // server -> client: {ok, message} (cancel/shutdown)
  kShutdown = 23,     // client -> server: finish running jobs, drain, exit
  // Fleet workers (one long-lived fleet multiplexed across jobs):
  kWelcome = 24,   // server -> worker: {worker_id}; marks a fleet server
  kJobLease = 25,  // server -> worker: {job_id} + the kLease triple; the
                   //   worker plans unseen job ids from the matching kJob
};

// --- payload (de)serialization -------------------------------------------

class ByteWriter {
 public:
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable<T>::value, "POD only");
    put_bytes(&v, sizeof(T));
  }
  void put_bytes(const void* p, size_t n) {
    if (n == 0) return;  // empty payload: nothing to copy (and p may be null)
    const size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, p, n);
  }
  void put_string(const std::string& s) {
    put<uint64_t>(s.size());
    put_bytes(s.data(), s.size());
  }
  const std::vector<uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(const std::vector<uint8_t>& v) : ByteReader(v.data(), v.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable<T>::value, "POD only");
    T v;
    get_bytes(&v, sizeof(T));
    return v;
  }
  void get_bytes(void* out, size_t n) {
    if (size_t(end_ - p_) < n) throw std::runtime_error("dist wire: truncated payload");
    std::memcpy(out, p_, n);
    p_ += n;
  }
  std::string get_string() {
    auto n = get<uint64_t>();
    if (size_t(end_ - p_) < n) throw std::runtime_error("dist wire: truncated string");
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  bool exhausted() const { return p_ == end_; }
  size_t remaining() const { return size_t(end_ - p_); }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

// Per-shard telemetry shipped back to the coordinator and aggregated into
// the sharded run result — the cross-process counterpart of the fields a
// SliceRunResult carries.
struct ShardTelemetry {
  int32_t shard = 0;
  uint64_t first = 0;
  uint64_t count = 0;  // static window size; 0 under the elastic driver
  uint64_t tasks_run = 0;
  uint64_t leases = 0;         // ranges this worker completed (elastic mode)
  uint64_t reduce_merges = 0;  // worker-local tournament merges
  double wall_seconds = 0;
  std::string isa;             // kernel ISA tier the worker ran ("avx512", ...)
  runtime::ExecutorSnapshot executor;
  runtime::MemoryStats memory;
  exec::ExecStats exec;
};

// Live per-worker metrics sample, carried by every kHeartbeat frame (v4+):
// the worker's compute thread refreshes a shared copy after each finished
// block; the heartbeat thread serializes whatever is current. The
// coordinator keeps the latest sample per peer and surfaces it through the
// status probe's `metrics` section and the periodic --metrics-interval
// snapshot.
struct WorkerPulse {
  double ema_utilization = 0;   // in-process scheduler busy-fraction EMA
  uint64_t tasks_run = 0;       // slice subtasks finished so far
  uint64_t leases_completed = 0;
  double device_bytes = 0;      // total transfer bytes (both directions)
  double device_ns = 0;         // total transfer wall-ns
  double wall_seconds = 0;      // time since the worker started computing
};

void put_tensor(ByteWriter& w, const exec::Tensor& t);
exec::Tensor get_tensor(ByteReader& r);

void put_pulse(ByteWriter& w, const WorkerPulse& p);
WorkerPulse get_pulse(ByteReader& r);

void put_exec_stats(ByteWriter& w, const exec::ExecStats& s);
exec::ExecStats get_exec_stats(ByteReader& r);

void put_snapshot(ByteWriter& w, const runtime::ExecutorSnapshot& s);
runtime::ExecutorSnapshot get_snapshot(ByteReader& r);

void put_memory_stats(ByteWriter& w, const runtime::MemoryStats& m);
runtime::MemoryStats get_memory_stats(ByteReader& r);

void put_telemetry(ByteWriter& w, const ShardTelemetry& t);
ShardTelemetry get_telemetry(ByteReader& r);

// The one way per-shard telemetry folds into run-level aggregates, shared
// by exec::run_sharded, the TCP coordinator and the job server (each used
// to hand-roll the same merge loop, which is how aggregation bugs drift).
struct AggregatedTelemetry {
  exec::ExecStats stats;                    // merged over shards
  runtime::ExecutorSnapshot executor;       // merged over shards
  runtime::MemoryStats memory;
  uint64_t tasks_run = 0;
  uint64_t reduce_merges = 0;               // worker-local merges only
};
AggregatedTelemetry aggregate_telemetry(const std::vector<ShardTelemetry>& shards);

// --- framing over a file descriptor (socketpair or TCP socket) -----------

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

// Writes one frame; throws std::runtime_error on a write error (EPIPE when
// the peer died — callers ignore SIGPIPE).
void write_frame(int fd, FrameType type, const void* payload, size_t size);
inline void write_frame(int fd, FrameType type, const ByteWriter& w) {
  write_frame(fd, type, w.buffer().data(), w.buffer().size());
}

// Reads one frame. Returns false on clean EOF before a header (peer closed
// between frames); throws on truncation, bad magic/version, or oversized
// payloads.
bool read_frame(int fd, Frame* out);

}  // namespace ltns::dist

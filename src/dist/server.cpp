#include "dist/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cache/cache.hpp"
#include "circuit/io.hpp"
#include "core/planner.hpp"
#include "device/cpu_probe.hpp"
#include "dist/checkpoint.hpp"
#include "dist/elastic.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_stream.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/eval.hpp"
#include "query/grouper.hpp"
#include "runtime/slice_scheduler.hpp"
#include "util/timer.hpp"

namespace ltns::dist {

namespace {

// On-disk header of spec.job / result.bin under <state_dir>/jobs/<id>/.
// Versioned separately from the wire: a protocol bump that leaves the
// JobSpec/JobResultRecord layouts alone must not orphan a state dir.
// v2: specs carry the v6 query-job tail (kind/query_text/max_open/
// amp_mode) and result records the kind + per-query result list.
// v3: specs carry the v7 precision tail.
constexpr uint32_t kStateMagic = 0x4C544A53u;  // "LTJS"
constexpr uint16_t kStateVersion = 3;

// The GEMM precision stamped into a job's kJob payload. Submit validates
// the spec's field; an empty one means fp32.
exec::Precision job_precision(const JobSpec& spec) {
  exec::Precision p = exec::Precision::kFp32;
  exec::parse_precision(spec.precision, &p);
  return p;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (uint8_t(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(uint8_t(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void set_rcv_timeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = long(seconds);
  tv.tv_usec = long((seconds - double(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool ensure_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

// tmp + rename, like every other snapshot writer in the tree: a reader (or
// a crashed writer) never sees a half-written spec or result.
bool write_file_atomic(const std::string& path, const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

bool read_file(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->insert(out->end(), buf, buf + n);
  std::fclose(f);
  return true;
}

std::vector<uint8_t> with_state_header(const ByteWriter& payload) {
  ByteWriter w;
  w.put<uint32_t>(kStateMagic);
  w.put<uint16_t>(kStateVersion);
  w.put<uint8_t>(host_endian());
  w.put_bytes(payload.buffer().data(), payload.buffer().size());
  return w.buffer();
}

// Validates the header and positions the reader at the payload. Throws on
// mismatch — loading a foreign or skewed state file must die loudly.
ByteReader open_state_payload(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.get<uint32_t>() != kStateMagic) throw std::runtime_error("bad state-file magic");
  if (r.get<uint16_t>() != kStateVersion)
    throw std::runtime_error("state-file version mismatch");
  if (r.get<uint8_t>() != host_endian())
    throw std::runtime_error("state-file endianness mismatch");
  return r;
}

}  // namespace

// --- FairShare -------------------------------------------------------------

FairShare::State& FairShare::ensure(const std::string& tenant) { return tenants_[tenant]; }

void FairShare::set_weight(const std::string& tenant, uint32_t weight) {
  ensure(tenant).weight = weight;
}

std::string FairShare::pick(const std::vector<std::string>& runnable) {
  const std::string* best_name = nullptr;
  State* best = nullptr;
  auto consider = [&](const std::string& name, bool background) {
    State& s = ensure(name);
    if (background != (s.weight == 0)) return;
    // An idle tenant re-enters at the scheduler clock: sleeping must not
    // bank virtual time it can later spend starving active tenants.
    if (s.vt < clock_) s.vt = clock_;
    if (best == nullptr || s.vt < best->vt || (s.vt == best->vt && name < *best_name)) {
      best = &s;
      best_name = &name;
    }
  };
  for (const auto& name : runnable) consider(name, /*background=*/false);
  if (best == nullptr)
    for (const auto& name : runnable) consider(name, /*background=*/true);
  if (best_name == nullptr) return "";
  clock_ = best->vt;
  return *best_name;
}

void FairShare::charge(const std::string& tenant, uint64_t tasks) {
  State& s = ensure(tenant);
  // Zero-weight (background) tenants are charged at weight 1 so several of
  // them still round-robin against each other.
  const double w = s.weight > 0 ? double(s.weight) : 1.0;
  s.vt += double(tasks) / w;
  s.charged += tasks;
}

double FairShare::virtual_time(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.vt;
}

std::vector<FairShare::TenantShare> FairShare::shares() const {
  std::vector<TenantShare> out;
  out.reserve(tenants_.size());
  for (const auto& [name, s] : tenants_) out.push_back({name, s.weight, s.vt, s.charged});
  return out;
}

// --- AdmissionControl ------------------------------------------------------

AdmissionControl::AdmissionControl(AdmissionOptions opt) : opt_(opt) {
  opt_.min_running = std::max(1, opt_.min_running);
  opt_.max_running = std::max(opt_.min_running, opt_.max_running);
  if (opt_.low_watermark > opt_.high_watermark) std::swap(opt_.low_watermark, opt_.high_watermark);
  limit_ = opt_.max_running;  // optimistic until the fleet says otherwise
}

void AdmissionControl::observe_utilization(double mean_ema) {
  if (mean_ema > opt_.high_watermark)
    limit_ = std::max(opt_.min_running, limit_ - 1);
  else if (mean_ema < opt_.low_watermark)
    limit_ = std::min(opt_.max_running, limit_ + 1);
}

// --- JobServer -------------------------------------------------------------

JobServer::JobServer(uint16_t port, ServerOptions opt) : opt_(std::move(opt)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("job server: socket failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    close_fd(&listen_fd_);
    throw std::runtime_error("job server: bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

JobServer::~JobServer() { close_fd(&listen_fd_); }

namespace {

struct ServerImpl {
  int listen_fd;
  const ServerOptions& opt;

  struct Peer {
    int fd = -1;
    enum class Kind { kUnknown, kWorker, kWaiter } kind = Kind::kUnknown;
    int worker_id = -1;
    bool parked = false;
    bool draining = false;
    bool finished = false;
    bool stalled = false;
    std::string isa;  // kernel ISA tier advertised in heartbeats
    WorkerPulse pulse;
    bool has_pulse = false;
    std::set<uint64_t> jobs_sent;  // job ids whose kJob frame this worker holds
    uint64_t waiting_job = 0;      // kind == kWaiter
    Timer last_seen;
  };
  std::vector<Peer> peers;
  int next_worker_id = 0;

  struct ServerJob {
    uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    Job base;           // kJob template (shard_id stamped per worker)
    uint64_t total = 0;
    std::unique_ptr<Prepared> prepared;
    std::unique_ptr<LeaseLedger> ledger;
    std::unique_ptr<ShardMerger> merger;
    std::unique_ptr<CheckpointWriter> journal;
    std::map<int, ShardTelemetry> worker_tel;  // latest cumulative per worker
    JobResultRecord result;                    // valid once terminal
    Timer run_wall;

    // v6 query jobs (spec.kind == "query"). The PARENT job holds the
    // parsed queries and the grouper's cover; each group that needs a
    // contraction runs as a hidden internal CHILD job (fresh id, `parent`
    // set) through the very same ledger/merger/lease machinery as a
    // classic amp job — workers cannot tell the difference. Children are
    // never persisted and never appear in status or admission counts; the
    // parent evaluates every member query once the last group lands.
    uint64_t parent = 0;  // != 0: internal child of that query job
    uint64_t child = 0;   // parent: id of the currently running child (0 = none)
    circuit::Circuit qcircuit;
    query::ParsedQueries queries;
    std::vector<query::GroupSpec> groups;
    size_t next_group = 0;
    uint64_t query_groups = 0;       // |groups| at start (survives cleanup)
    uint64_t query_contractions = 0; // groups actually contracted
    uint64_t query_cache_groups = 0; // groups answered from the result cache
    std::vector<ShardTelemetry> query_tel;  // accumulated across children
    std::vector<std::vector<std::complex<double>>> group_amps;

    bool internal() const { return parent != 0; }
  };
  std::map<uint64_t, ServerJob> jobs;
  uint64_t next_job_id = 1;

  FairShare shares;
  AdmissionControl admission;
  bool shutting_down = false;
  std::string fatal;
  uint64_t submitted = 0, rejected = 0, cancelled = 0, completed = 0, failed = 0;
  uint64_t late_frames_dropped = 0;
  uint64_t served_from_cache = 0;
  Timer metrics_last, admission_last;

  // Shared content-addressed cache (disk-backed only — see ServerOptions).
  std::unique_ptr<cache::PlanCache> plan_cache;
  std::unique_ptr<cache::ResultCache> result_cache;

  ServerImpl(int fd, const ServerOptions& o) : listen_fd(fd), opt(o), admission(o.admission) {
    if (!opt.cache.cache_dir.empty()) {
      if (opt.cache.plan_enabled()) plan_cache = std::make_unique<cache::PlanCache>(opt.cache);
      if (opt.cache.result_enabled())
        result_cache = std::make_unique<cache::ResultCache>(opt.cache);
    }
  }

  // The exact PlanOptions prepare_job derives from a spec — the cache keys
  // must hash the same preimage a solo `amp` run with these knobs hashes,
  // or the two transports would stop sharing entries.
  static core::PlanOptions spec_plan_options(const JobSpec& s) {
    core::PlanOptions po;
    po.target_log2size = s.target_log2size;
    po.seed = s.plan_seed;
    return po;
  }
  static std::string spec_result_key(const JobSpec& s) {
    return cache::result_key(s.circuit_text, s.bits, /*open_qubits=*/"", spec_plan_options(s),
                             s.fused != 0, s.ldm_elems, job_precision(s));
  }
  // The canonical key preimage forms the Simulator hashes ('0'/'1' bit
  // text, "q0,q1," open text) — a batch the server computes must be
  // addressable by a solo run pointed at the same --cache-dir.
  static std::string bit_text(const std::vector<int>& bits) {
    std::string t;
    t.reserve(bits.size());
    for (int b : bits) t += b != 0 ? '1' : '0';
    return t;
  }
  static std::string open_text(const std::vector<int>& open_qubits) {
    std::string t;
    for (int q : open_qubits) t += std::to_string(q) + ",";
    return t;
  }
  // Everything the result key hashes besides bits/open — the scope the
  // covering-batch index partitions on (mirrors api::Simulator).
  static std::string spec_scope(const JobSpec& s) {
    return cache::result_key(s.circuit_text, "", "", spec_plan_options(s), s.fused != 0,
                             s.ldm_elems, job_precision(s));
  }
  static std::string group_result_key(const JobSpec& s, const query::GroupSpec& g) {
    return cache::result_key(s.circuit_text, bit_text(g.base_bits), open_text(g.open_qubits),
                             spec_plan_options(s), s.fused != 0, s.ldm_elems, job_precision(s));
  }

  static bool terminal(JobState s) {
    return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled;
  }
  // Internal children ride their parent's admission slot: only the parent
  // counts, or a query job would consume two running slots.
  int running_count() const {
    int n = 0;
    for (const auto& [id, j] : jobs)
      if (j.state == JobState::kRunning && !j.internal()) ++n;
    return n;
  }
  size_t queued_count() const {
    size_t n = 0;
    for (const auto& [id, j] : jobs)
      if (j.state == JobState::kQueued && !j.internal()) ++n;
    return n;
  }

  // --- persistence ---------------------------------------------------------

  std::string jobs_dir() const { return opt.state_dir + "/jobs"; }
  std::string job_dir(uint64_t id) const { return jobs_dir() + "/" + std::to_string(id); }

  void persist_spec(const ServerJob& j) {
    if (opt.state_dir.empty()) return;
    ensure_dir(opt.state_dir);
    ensure_dir(jobs_dir());
    ensure_dir(job_dir(j.id));
    ByteWriter w;
    put_job_spec(w, j.spec);
    write_file_atomic(job_dir(j.id) + "/spec.job", with_state_header(w));
  }

  void persist_result(const ServerJob& j) {
    if (opt.state_dir.empty()) return;
    ensure_dir(job_dir(j.id));
    ByteWriter w;
    put_result_record(w, j.result);
    write_file_atomic(job_dir(j.id) + "/result.bin", with_state_header(w));
  }

  // Rebuilds the queue and the terminal-result index from the state dir: a
  // job with a result.bin is terminal; anything else (queued OR mid-run at
  // the crash) re-queues, and its spill journal — when one exists — will
  // replay at start so only unfinished ranges recompute.
  void resume_scan() {
    if (opt.state_dir.empty()) return;
    DIR* d = ::opendir(jobs_dir().c_str());
    if (d == nullptr) return;
    while (dirent* e = ::readdir(d)) {
      char* end = nullptr;
      const uint64_t id = std::strtoull(e->d_name, &end, 10);
      if (id == 0 || end == e->d_name || *end != '\0') continue;
      std::vector<uint8_t> bytes;
      if (!read_file(job_dir(id) + "/spec.job", &bytes)) continue;
      ServerJob j;
      j.id = id;
      try {
        auto r = open_state_payload(bytes);
        j.spec = get_job_spec(r);
        if (read_file(job_dir(id) + "/result.bin", &bytes)) {
          auto rr = open_state_payload(bytes);
          j.result = get_result_record(rr);
          j.state = j.result.state;
        }
      } catch (const std::exception&) {
        continue;  // damaged entry: leave it on disk, don't load it
      }
      shares.set_weight(j.spec.tenant, j.spec.weight);
      next_job_id = std::max(next_job_id, id + 1);
      // Re-seed the shared result cache from results persisted before the
      // cache existed (or under a different cache dir), so a restarted
      // server short-circuits duplicates of everything it ever finished.
      if (result_cache != nullptr && j.state == JobState::kDone && j.result.error.empty() &&
          j.spec.kind == "amp") {
        cache::AmplitudeEntry e;
        e.amplitude = {j.result.amplitude_re, j.result.amplitude_im};
        e.num_slices = j.result.num_slices;
        e.tasks_run = j.result.tasks_run;
        e.wall_seconds = j.result.wall_seconds;
        e.telemetry = j.result.telemetry;
        result_cache->insert_amplitude(spec_result_key(j.spec), e);
      }
      jobs.emplace(id, std::move(j));
    }
    ::closedir(d);
  }

  // --- scheduling ----------------------------------------------------------

  ServerJob* pick_by_fair_share(JobState wanted) {
    std::map<std::string, std::vector<ServerJob*>> by_tenant;
    for (auto& [id, j] : jobs) {
      if (j.state != wanted) continue;
      if (wanted == JobState::kRunning &&
          (j.ledger == nullptr || j.ledger->pending_ranges() == 0))
        continue;
      by_tenant[j.spec.tenant].push_back(&j);
    }
    if (by_tenant.empty()) return nullptr;
    std::vector<std::string> runnable;
    runnable.reserve(by_tenant.size());
    for (const auto& [tenant, js] : by_tenant) runnable.push_back(tenant);
    const auto tenant = shares.pick(runnable);
    if (tenant.empty()) return nullptr;
    ServerJob* best = nullptr;
    for (ServerJob* j : by_tenant[tenant]) {
      if (best == nullptr || j->spec.priority > best->spec.priority ||
          (j->spec.priority == best->spec.priority && j->id < best->id))
        best = j;
    }
    return best;
  }

  void maybe_start_jobs() {
    if (shutting_down) return;
    while (running_count() < admission.running_limit()) {
      ServerJob* j = pick_by_fair_share(JobState::kQueued);
      if (j == nullptr) return;
      start_job(*j);
    }
  }

  void start_job(ServerJob& j) {
    if (j.spec.kind == "query") {
      start_query_job(j);
      return;
    }
    try {
      auto circ = circuit::circuit_from_string(j.spec.circuit_text);
      std::vector<int> bits;
      bits.reserve(j.spec.bits.size());
      for (char ch : j.spec.bits) bits.push_back(ch == '1');
      // Plan-cache aware: a repeated circuit (same knobs) skips the path
      // optimizer and the slicers entirely; the rebuilt plan is identical,
      // so the job's amplitude stays byte-identical either way.
      j.prepared = prepare_job(circ, j.spec.circuit_text, bits, j.spec.target_log2size,
                               j.spec.plan_seed, plan_cache.get());
    } catch (const std::exception& e) {
      fail_job(j, std::string("planning failed: ") + e.what());
      return;
    }
    const int ns = j.prepared->plan.num_slices();
    if (ns >= 57) {  // same bound run_sharded enforces
      fail_job(j, "too many sliced edges");
      return;
    }
    j.total = uint64_t(1) << ns;

    j.base = Job{};
    j.base.job_id = j.id;
    j.base.circuit_text = j.spec.circuit_text;
    j.base.bits = j.spec.bits;
    j.base.target_log2size = j.spec.target_log2size;
    j.base.plan_seed = j.spec.plan_seed;
    j.base.grain = opt.grain;
    j.base.workers = opt.workers_per_process;
    j.base.num_slices = int32_t(ns);
    j.base.fused = j.spec.fused;
    j.base.ldm_elems = j.spec.ldm_elems;
    j.base.elastic = 1;
    j.base.heartbeat_seconds = opt.heartbeat_seconds;
    j.base.precision = job_precision(j.spec);

    // Disjoint lease-id base: the job id rides the high 32 bits of every
    // lease this ledger issues, so worker frames route by lease id alone.
    j.ledger = std::make_unique<LeaseLedger>(j.total, std::max(1, opt.home_workers),
                                             opt.lease_size, (j.id << 32) | 1);
    j.merger = std::make_unique<ShardMerger>(j.total);
    if (!opt.state_dir.empty()) {
      try {
        ensure_dir(job_dir(j.id));
        CheckpointMeta meta;
        meta.total = j.total;
        meta.home_workers = int32_t(std::max(1, opt.home_workers));
        meta.lease_size = j.ledger->lease_size();
        meta.run_id = run_fingerprint(j.spec.circuit_text, j.spec.bits, /*open_qubits=*/"",
                                      j.spec.fused != 0, j.spec.ldm_elems,
                                      j.prepared->plan.path,
                                      j.prepared->plan.slices.to_vector());
        // Always resume-if-present: a re-queued job that was mid-run when
        // the server died replays its journal and recomputes only the tail.
        j.journal = open_or_resume_journal(job_dir(j.id) + "/spill", meta, /*resume=*/true,
                                           opt.fsync_seconds, j.ledger.get(), j.merger.get());
      } catch (const std::exception& e) {
        fail_job(j, std::string("spill journal: ") + e.what());
        return;
      }
    }
    j.state = JobState::kRunning;
    j.run_wall.reset();
    if (j.ledger->done()) finish_job(j);  // journal already covered the run
  }

  // --- query jobs (v6) -----------------------------------------------------

  void start_query_job(ServerJob& j) {
    try {
      j.qcircuit = circuit::circuit_from_string(j.spec.circuit_text);
      j.queries = query::parse_queries(j.spec.query_text, j.qcircuit.num_qubits);
    } catch (const std::exception& e) {
      fail_job(j, std::string("bad circuit: ") + e.what());
      return;
    }
    // Submit-time validation already rejected malformed files; a parse
    // failure here means the persisted spec was edited — fail loudly.
    if (!j.queries.ok()) {
      fail_job(j, "line " + std::to_string(j.queries.error_line) + ": " + j.queries.error);
      return;
    }
    query::GrouperOptions go;
    go.max_open = std::max(0, int(j.spec.max_open));
    go.group_amplitudes = j.spec.amp_mode == "grouped";
    j.groups = query::group_queries(j.queries.queries, go);
    j.query_groups = j.groups.size();
    j.group_amps.assign(j.groups.size(), {});
    j.next_group = 0;
    j.state = JobState::kRunning;
    j.run_wall.reset();
    start_next_group(j);
  }

  // Advances the parent: serves groups from the result cache until one
  // needs a contraction (spawn a child, return) or none are left (emit the
  // parent's record). Called at start and after every child retires.
  void start_next_group(ServerJob& j) {
    while (j.next_group < j.groups.size()) {
      const auto& g = j.groups[j.next_group];
      std::vector<std::complex<double>> amps;
      if (probe_group_cache(j, g, &amps)) {
        j.group_amps[j.next_group] = std::move(amps);
        ++j.query_cache_groups;
        ++served_from_cache;
        ++j.next_group;
        continue;
      }
      start_child(j, g);  // on failure the parent is already terminal
      return;
    }
    finish_query_job(j);
  }

  // The engine's reuse rule: closed groups in exact amp mode may only take
  // an EXACT single-amplitude hit (byte contract with solo `amp`); open
  // groups — and closed ones under grouped mode — also slice their answer
  // out of any cached batch whose open set covers them.
  bool probe_group_cache(const ServerJob& j, const query::GroupSpec& g,
                         std::vector<std::complex<double>>* out) {
    if (result_cache == nullptr) return false;
    const bool closed = g.open_qubits.empty();
    if (closed) {
      cache::AmplitudeEntry e;
      if (result_cache->lookup_amplitude(group_result_key(j.spec, g), &e)) {
        *out = {e.amplitude};
        return true;
      }
      if (j.spec.amp_mode != "grouped") return false;
    }
    cache::BatchEntry e;
    if (!result_cache->find_covering_batch(spec_scope(j.spec), g.base_bits, g.open_qubits, &e))
      return false;
    *out = query::restrict_amplitudes(e.amplitudes, e.open_qubits, g.open_qubits, g.base_bits);
    return true;
  }

  void start_child(ServerJob& parent, const query::GroupSpec& g) {
    const uint64_t id = next_job_id++;
    ServerJob c;
    c.id = id;
    c.parent = parent.id;
    c.spec = parent.spec;
    c.spec.kind = "amp";
    c.spec.query_text.clear();
    c.spec.name = parent.spec.name + "#g" + std::to_string(parent.next_group);
    try {
      c.prepared = prepare_job(parent.qcircuit, parent.spec.circuit_text, g.base_bits,
                               parent.spec.target_log2size, parent.spec.plan_seed,
                               plan_cache.get(), nullptr, g.open_qubits);
    } catch (const std::exception& e) {
      fail_job(parent,
               "group " + std::to_string(parent.next_group) + " planning failed: " + e.what());
      return;
    }
    const int ns = c.prepared->plan.num_slices();
    if (ns >= 57) {
      fail_job(parent, "group " + std::to_string(parent.next_group) + ": too many sliced edges");
      return;
    }
    c.total = uint64_t(1) << ns;

    c.base = Job{};
    c.base.job_id = id;
    c.base.circuit_text = parent.spec.circuit_text;
    c.base.bits = bit_text(g.base_bits);
    c.base.open_qubits = g.open_qubits;
    c.base.target_log2size = parent.spec.target_log2size;
    c.base.plan_seed = parent.spec.plan_seed;
    c.base.grain = opt.grain;
    c.base.workers = opt.workers_per_process;
    c.base.num_slices = int32_t(ns);
    c.base.fused = parent.spec.fused;
    c.base.ldm_elems = parent.spec.ldm_elems;
    c.base.elastic = 1;
    c.base.heartbeat_seconds = opt.heartbeat_seconds;
    c.base.precision = job_precision(parent.spec);

    c.ledger = std::make_unique<LeaseLedger>(c.total, std::max(1, opt.home_workers),
                                             opt.lease_size, (id << 32) | 1);
    c.merger = std::make_unique<ShardMerger>(c.total);
    // No spill journal: a crashed server re-queues the PARENT (its spec is
    // persisted, its result is not) and replans every group — the plan
    // cache makes that cheap, and children stay entirely in memory.
    c.state = JobState::kRunning;
    c.run_wall.reset();
    parent.child = id;
    jobs.emplace(id, std::move(c));
  }

  // A child's merger drained: convert its root into the parent's group
  // amplitudes, retire the child in place (no record, no persistence) and
  // move the parent forward.
  void finish_child_job(ServerJob& c) {
    std::string err;
    std::vector<std::complex<double>> amps;
    exec::Tensor root;
    if (!c.merger->complete()) {
      err = "reduction incomplete despite a drained ledger";
    } else {
      root = c.merger->take_root();
    }
    auto pit = jobs.find(c.parent);
    std::vector<ShardTelemetry> tel;
    for (const auto& [wid, t] : c.worker_tel) tel.push_back(t);
    const double child_wall = c.run_wall.seconds();
    c.state = JobState::kDone;
    c.ledger.reset();
    c.merger.reset();
    c.worker_tel.clear();
    if (pit == jobs.end() || terminal(pit->second.state)) {
      c.prepared.reset();  // parent gone (cancelled): drop the work
      return;
    }
    ServerJob& p = pit->second;
    p.child = 0;
    for (auto& t : tel) p.query_tel.push_back(std::move(t));
    const auto& g = p.groups[p.next_group];
    if (err.empty()) {
      if (g.open_qubits.empty()) {
        if (root.rank() != 0 || root.size() != 1) {
          err = "closed group produced a non-scalar root";
        } else {
          amps = {std::complex<double>(root.data()[0]) * c.prepared->lowered.scalar};
        }
      } else {
        amps = query::amplitudes_from_tensor(root, c.prepared->lowered, g.open_qubits);
        if (amps.empty()) err = "open group produced a mis-shaped root";
      }
    }
    if (!err.empty()) {
      c.prepared.reset();
      fail_job(p, "group " + std::to_string(p.next_group) + ": " + err);
      return;
    }
    if (result_cache != nullptr) {
      if (g.open_qubits.empty()) {
        // Same entry a solo `amp` run (or an amp-kind submit) would write.
        cache::AmplitudeEntry e;
        e.amplitude = amps[0];
        e.num_slices = c.base.num_slices;
        e.slicing = c.prepared->plan.metrics;
        e.wall_seconds = child_wall;
        result_cache->insert_amplitude(group_result_key(p.spec, g), e);
      } else {
        cache::BatchEntry e;
        e.amplitudes = amps;
        e.open_qubits = g.open_qubits;
        e.base_bits = g.base_bits;  // grouper emits canonical (open zeroed) form
        e.slicing = c.prepared->plan.metrics;
        result_cache->insert_batch(group_result_key(p.spec, g), e, spec_scope(p.spec));
      }
    }
    c.prepared.reset();
    p.group_amps[p.next_group] = std::move(amps);
    ++p.query_contractions;
    ++p.next_group;
    start_next_group(p);
  }

  // Every group answered: evaluate each member query against its group's
  // amplitudes and emit the parent's terminal record, results in file
  // order.
  void finish_query_job(ServerJob& j) {
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.kind = "query";
    rec.wall_seconds = j.run_wall.seconds();
    rec.telemetry.shards = j.query_tel;
    auto agg = aggregate_telemetry(rec.telemetry.shards);
    rec.telemetry.stats = agg.stats;
    rec.telemetry.runtime_stats = agg.executor;
    rec.telemetry.memory = agg.memory;
    rec.tasks_run = agg.tasks_run;
    std::vector<query::QueryResult> results(j.queries.queries.size());
    for (size_t gi = 0; gi < j.groups.size(); ++gi) {
      const auto& g = j.groups[gi];
      for (int member : g.members) {
        results[size_t(member)] = query::evaluate_query(j.queries.queries[size_t(member)],
                                                        g.open_qubits, j.group_amps[gi]);
      }
    }
    rec.query_results = std::move(results);
    rec.state = JobState::kDone;
    finalize_job(j, std::move(rec));
  }

  void dispatch(Peer& w) {
    if (shutting_down && running_count() == 0) {
      if (!w.draining) {
        write_frame(w.fd, FrameType::kDrain, nullptr, 0);
        w.draining = true;
      }
      return;
    }
    ServerJob* j = pick_by_fair_share(JobState::kRunning);
    if (j == nullptr) {
      w.parked = true;
      return;
    }
    Lease l;
    if (!j->ledger->acquire(w.worker_id, &l)) {
      w.parked = true;
      return;
    }
    if (w.jobs_sent.find(j->id) == w.jobs_sent.end()) {
      Job job = j->base;
      job.shard_id = w.worker_id;
      ByteWriter jw;
      put_job(jw, job);
      write_frame(w.fd, FrameType::kJob, jw);
      w.jobs_sent.insert(j->id);
    }
    ByteWriter lw;
    lw.put<uint64_t>(j->id);
    lw.put<uint64_t>(l.id);
    lw.put<uint64_t>(l.first);
    lw.put<uint64_t>(l.count);
    write_frame(w.fd, FrameType::kJobLease, lw);
    shares.charge(j->spec.tenant, l.count);
  }

  void serve_parked() {
    for (auto& p : peers) {
      if (p.kind != Peer::Kind::kWorker || p.fd < 0 || p.finished || !p.parked) continue;
      p.parked = false;
      try {
        dispatch(p);  // re-parks when still nothing to hand out
      } catch (...) {
        drop_peer(p);
      }
    }
  }

  void drop_peer(Peer& p) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
    const bool was_finished = p.finished;
    p.finished = true;
    if (p.kind == Peer::Kind::kWorker && p.worker_id >= 0 && !was_finished && !p.draining) {
      // Revoke across every running job: each ledger requeues the ranges
      // this worker held, exactly like the one-shot elastic driver.
      for (auto& [id, j] : jobs)
        if (j.state == JobState::kRunning && j.ledger != nullptr)
          j.ledger->revoke_worker(p.worker_id, /*lost=*/true);
    }
  }

  // --- job completion ------------------------------------------------------

  void finish_job(ServerJob& j) {
    if (j.internal()) {
      finish_child_job(j);
      return;
    }
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.num_slices = j.base.num_slices;
    rec.wall_seconds = j.run_wall.seconds();
    for (const auto& [wid, tel] : j.worker_tel) rec.telemetry.shards.push_back(tel);
    auto agg = aggregate_telemetry(rec.telemetry.shards);
    rec.telemetry.stats = agg.stats;
    rec.telemetry.runtime_stats = agg.executor;
    rec.telemetry.memory = agg.memory;
    rec.tasks_run = agg.tasks_run;
    rec.telemetry.rebalance = j.ledger->stats();
    rec.telemetry.runtime_stats.ranges_stolen += rec.telemetry.rebalance.ranges_stolen;
    rec.telemetry.runtime_stats.ranges_reissued += rec.telemetry.rebalance.ranges_reissued;
    rec.telemetry.runtime_stats.straggler_wait_seconds +=
        rec.telemetry.rebalance.straggler_wait_seconds;
    if (!j.merger->complete()) {
      rec.state = JobState::kFailed;
      rec.error = "reduction incomplete despite a drained ledger";
    } else {
      auto root = j.merger->take_root();
      if (root.rank() != 0 || root.size() != 1) {
        rec.state = JobState::kFailed;
        rec.error = "amplitude job produced a non-scalar root";
      } else {
        const auto amp = std::complex<double>(root.data()[0]) * j.prepared->lowered.scalar;
        rec.amplitude_re = amp.real();
        rec.amplitude_im = amp.imag();
        rec.state = JobState::kDone;
        if (result_cache != nullptr) {
          // Populate the shared cache: the next identical submit — here or
          // in a solo run pointed at the same --cache-dir — short-circuits.
          cache::AmplitudeEntry e;
          e.amplitude = amp;
          e.num_slices = rec.num_slices;
          e.slicing = j.prepared->plan.metrics;
          e.tasks_run = rec.tasks_run;
          e.wall_seconds = rec.wall_seconds;
          e.telemetry = rec.telemetry;
          result_cache->insert_amplitude(spec_result_key(j.spec), e);
        }
      }
    }
    finalize_job(j, std::move(rec));
  }

  void fail_job(ServerJob& j, const std::string& error) {
    if (j.internal()) {
      // A child's failure is its parent's failure: retire the child in
      // place (no record of its own) and surface the error on the parent.
      j.state = JobState::kFailed;
      j.ledger.reset();
      j.merger.reset();
      j.journal.reset();
      j.prepared.reset();
      j.worker_tel.clear();
      auto pit = jobs.find(j.parent);
      if (pit != jobs.end() && !terminal(pit->second.state)) {
        pit->second.child = 0;
        fail_job(pit->second,
                 "group " + std::to_string(pit->second.next_group) + ": " + error);
      }
      return;
    }
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.state = JobState::kFailed;
    rec.error = error;
    rec.telemetry.error = error;
    if (j.state == JobState::kRunning) rec.wall_seconds = j.run_wall.seconds();
    finalize_job(j, std::move(rec));
  }

  void cancel_job_record(ServerJob& j) {
    JobResultRecord rec;
    rec.job_id = j.id;
    rec.name = j.spec.name;
    rec.tenant = j.spec.tenant;
    rec.state = JobState::kCancelled;
    rec.error = "cancelled by client";
    if (j.state == JobState::kRunning) rec.wall_seconds = j.run_wall.seconds();
    finalize_job(j, std::move(rec));
  }

  void finalize_job(ServerJob& j, JobResultRecord rec) {
    j.result = std::move(rec);
    j.state = j.result.state;
    switch (j.state) {
      case JobState::kDone: ++completed; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
      default: break;
    }
    persist_result(j);
    // Release the run machinery: in-flight worker frames for this job's
    // leases now route nowhere and are counted as late drops.
    j.ledger.reset();
    j.merger.reset();
    j.journal.reset();
    // With the writer closed, shrink a finished job's spill journal to its
    // single-span form (PR 5 carry-over: long-lived state dirs must not
    // accumulate one record per lease forever).
    if (!opt.state_dir.empty() && j.state == JobState::kDone) {
      try {
        compact_checkpoint(job_dir(j.id) + "/spill");
      } catch (const std::exception&) {
        // Compaction is an optimization; the full journal still resumes.
      }
    }
    j.prepared.reset();
    j.worker_tel.clear();
    // A terminal query parent takes its running child down with it: the
    // child's machinery drops so in-flight worker frames become clean late
    // drops, exactly like a cancelled classic job.
    if (j.child != 0) {
      auto cit = jobs.find(j.child);
      if (cit != jobs.end() && !terminal(cit->second.state)) {
        cit->second.state = JobState::kCancelled;
        cit->second.ledger.reset();
        cit->second.merger.reset();
        cit->second.prepared.reset();
        cit->second.worker_tel.clear();
      }
      j.child = 0;
    }
    j.queries = {};
    j.groups.clear();
    j.group_amps.clear();
    j.query_tel.clear();
    for (auto& p : peers) {
      if (p.kind != Peer::Kind::kWaiter || p.fd < 0 || p.waiting_job != j.id) continue;
      try {
        ByteWriter w;
        put_result_record(w, j.result);
        write_frame(p.fd, FrameType::kResult, w);
      } catch (...) {
      }
      ::close(p.fd);
      p.fd = -1;
      p.finished = true;
    }
  }

  // --- control plane -------------------------------------------------------

  void reply_submit(int fd, bool ok, uint64_t id, const std::string& msg) {
    ByteWriter w;
    w.put<uint32_t>(ok ? 1 : 0);
    w.put<uint64_t>(id);
    w.put_string(msg);
    write_frame(fd, FrameType::kSubmitReply, w);
  }

  void reply_server(int fd, bool ok, const std::string& msg) {
    ByteWriter w;
    w.put<uint32_t>(ok ? 1 : 0);
    w.put_string(msg);
    write_frame(fd, FrameType::kServerReply, w);
  }

  void handle_submit(Peer& p, const Frame& f) {
    ByteReader r(f.payload);
    auto spec = get_job_spec(r);
    std::string reason;
    if (shutting_down) {
      reason = "server is shutting down";
    } else if (!admission.admit(queued_count())) {
      reason = "queue full (" + std::to_string(queued_count()) + " of " +
               std::to_string(admission.options().max_queued) + " jobs queued)";
    } else if (spec.kind != "amp" && spec.kind != "query") {
      reason = "unknown job kind \"" + spec.kind + "\" (expected \"amp\" or \"query\")";
    } else if (spec.kind == "query" && spec.amp_mode != "exact" && spec.amp_mode != "grouped") {
      reason = "unknown amp mode \"" + spec.amp_mode + "\" (expected \"exact\" or \"grouped\")";
    } else if (!spec.precision.empty() && spec.precision != "fp32" && spec.precision != "bf16") {
      reason = "unknown precision \"" + spec.precision + "\" (expected \"fp32\" or \"bf16\")";
    } else {
      try {
        auto circ = circuit::circuit_from_string(spec.circuit_text);
        if (size_t(circ.num_qubits) != spec.bits.size()) {
          reason = "bitstring length " + std::to_string(spec.bits.size()) +
                   " does not match the circuit's " + std::to_string(circ.num_qubits) +
                   " qubits";
        } else if (spec.kind == "query") {
          // Malformed query files are rejected AT SUBMIT, with the parser's
          // line-tagged message — never queued to fail later.
          auto parsed = query::parse_queries(spec.query_text, circ.num_qubits);
          if (!parsed.ok())
            reason = "line " + std::to_string(parsed.error_line) + ": " + parsed.error;
          else if (parsed.queries.empty())
            reason = "query file contains no queries";
        }
      } catch (const std::exception& e) {
        reason = std::string("bad circuit: ") + e.what();
      }
    }
    if (!reason.empty()) {
      ++rejected;
      reply_submit(p.fd, false, 0, reason);
      return;
    }
    const uint64_t id = next_job_id++;
    ServerJob j;
    j.id = id;
    j.spec = std::move(spec);
    if (j.spec.name.empty()) j.spec.name = "job-" + std::to_string(id);
    shares.set_weight(j.spec.tenant, j.spec.weight);  // latest submit wins
    ++submitted;
    // Duplicate-submit short-circuit: a spec whose result fingerprint is
    // already cached turns terminal AT SUBMIT TIME — it never queues, never
    // plans, never touches the fleet. The new job id gets its own spec.job
    // and result.bin (identity rewritten) so fetch/status work as usual.
    cache::AmplitudeEntry hit;
    if (result_cache != nullptr && j.spec.kind == "amp" &&
        result_cache->lookup_amplitude(spec_result_key(j.spec), &hit)) {
      JobResultRecord rec;
      rec.job_id = id;
      rec.name = j.spec.name;
      rec.tenant = j.spec.tenant;
      rec.state = JobState::kDone;
      rec.amplitude_re = hit.amplitude.real();
      rec.amplitude_im = hit.amplitude.imag();
      rec.num_slices = hit.num_slices;
      rec.wall_seconds = hit.wall_seconds;  // the run that earned the entry
      rec.tasks_run = hit.tasks_run;
      rec.telemetry = hit.telemetry;
      j.result = std::move(rec);
      j.state = JobState::kDone;
      j.total = uint64_t(1) << uint32_t(std::max<int32_t>(0, j.result.num_slices));
      persist_spec(j);
      persist_result(j);
      jobs.emplace(id, std::move(j));
      ++completed;
      ++served_from_cache;
      reply_submit(p.fd, true, id, "done (served from cache)");
      return;
    }
    persist_spec(j);
    jobs.emplace(id, std::move(j));
    reply_submit(p.fd, true, id, "queued");
  }

  void handle_cancel(Peer& p, const Frame& f) {
    ByteReader r(f.payload);
    const uint64_t id = r.get<uint64_t>();
    auto it = jobs.find(id);
    if (it == jobs.end() || it->second.internal()) {
      reply_server(p.fd, false, "unknown job id " + std::to_string(id));
      return;
    }
    if (terminal(it->second.state)) {
      reply_server(p.fd, false,
                   "job " + std::to_string(id) + " already " +
                       job_state_name(it->second.state));
      return;
    }
    cancel_job_record(it->second);
    reply_server(p.fd, true, "cancelled");
  }

  void handle_fetch(Peer& p, const Frame& f) {
    ByteReader r(f.payload);
    const uint64_t id = r.get<uint64_t>();
    const bool wait = r.get<uint32_t>() != 0;
    auto it = jobs.find(id);
    if (it == jobs.end() || it->second.internal()) {
      send_error(p.fd, "unknown job id " + std::to_string(id));
      ::close(p.fd);
      p.fd = -1;
      p.finished = true;
      return;
    }
    if (terminal(it->second.state)) {
      ByteWriter w;
      put_result_record(w, it->second.result);
      write_frame(p.fd, FrameType::kResult, w);
      ::close(p.fd);
      p.fd = -1;
      p.finished = true;
      return;
    }
    if (wait) {
      // Long poll: the fd stays open until the job turns terminal.
      p.kind = Peer::Kind::kWaiter;
      p.waiting_job = id;
      return;
    }
    send_error(p.fd, "job " + std::to_string(id) + " is " +
                         job_state_name(it->second.state) + " (use --wait to block)");
    ::close(p.fd);
    p.fd = -1;
    p.finished = true;
  }

  void handle_shutdown(Peer& p) {
    shutting_down = true;
    // Waiters on jobs that will never start now get a clean refusal
    // instead of a hang (queued jobs persist for the next server).
    for (auto& w : peers) {
      if (w.kind != Peer::Kind::kWaiter || w.fd < 0) continue;
      auto it = jobs.find(w.waiting_job);
      if (it != jobs.end() && terminal(it->second.state)) continue;
      send_error(w.fd, "server shutting down; job " + std::to_string(w.waiting_job) +
                           " is still " +
                           (it == jobs.end() ? "unknown"
                                             : job_state_name(it->second.state)));
      ::close(w.fd);
      w.fd = -1;
      w.finished = true;
    }
    reply_server(p.fd, true, "draining: finishing running jobs, then exiting");
  }

  // --- frame handling ------------------------------------------------------

  void handle_frame(Peer& p, const Frame& f) {
    if (p.kind == Peer::Kind::kUnknown) {
      switch (f.type) {
        case FrameType::kHello: {
          const int id = next_worker_id++;
          ByteWriter w;
          w.put<int32_t>(int32_t(id));
          w.put<double>(opt.heartbeat_seconds);
          write_frame(p.fd, FrameType::kWelcome, w);
          p.kind = Peer::Kind::kWorker;
          p.worker_id = id;
          return;
        }
        case FrameType::kStatusRequest:
        case FrameType::kJobStatus: {
          uint64_t id = 0;
          if (f.type == FrameType::kJobStatus && !f.payload.empty()) {
            ByteReader r(f.payload);
            id = r.get<uint64_t>();
          }
          std::string json;
          if (id == 0) {
            json = server_status_json();
          } else {
            auto it = jobs.find(id);
            if (it == jobs.end() || it->second.internal()) {
              send_error(p.fd, "unknown job id " + std::to_string(id));
              ::close(p.fd);
              p.fd = -1;
              p.finished = true;
              return;
            }
            json = job_status_json(it->second);
          }
          ByteWriter w;
          w.put_string(json);
          try {
            write_frame(p.fd, FrameType::kStatus, w);
          } catch (...) {
          }
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        }
        case FrameType::kSubmit:
          handle_submit(p, f);
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        case FrameType::kCancel:
          handle_cancel(p, f);
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        case FrameType::kFetchResult:
          handle_fetch(p, f);
          return;
        case FrameType::kShutdown:
          handle_shutdown(p);
          ::close(p.fd);
          p.fd = -1;
          p.finished = true;
          return;
        default:
          throw std::runtime_error("peer opened with an unexpected frame");
      }
    }
    if (p.kind != Peer::Kind::kWorker) {
      // A waiter has nothing more to say; any further frame is a protocol
      // error and costs it the connection.
      throw std::runtime_error("unexpected frame from a result waiter");
    }
    switch (f.type) {
      case FrameType::kLeaseRequest: {
        if (!f.payload.empty()) {
          ByteReader r(f.payload);
          if (int(r.get<int32_t>()) != p.worker_id)
            throw std::runtime_error("lease request carries a mismatched worker id");
        }
        p.parked = false;
        dispatch(p);
        break;
      }
      case FrameType::kLeaseBlock: {
        ByteReader r(f.payload);
        const auto lease = r.get<uint64_t>();
        const int level = int(r.get<int32_t>());
        const auto index = r.get<uint64_t>();
        auto it = jobs.find(lease >> 32);
        if (it == jobs.end() || it->second.state != JobState::kRunning) {
          ++late_frames_dropped;  // job finished/cancelled while in flight
          break;
        }
        it->second.ledger->add_block(p.worker_id, lease, level, index, get_tensor(r));
        break;
      }
      case FrameType::kRangeDone: {
        ByteReader r(f.payload);
        const auto lease = r.get<uint64_t>();
        auto it = jobs.find(lease >> 32);
        if (it == jobs.end() || it->second.state != JobState::kRunning) {
          ++late_frames_dropped;
          break;
        }
        ServerJob& j = it->second;
        bool merged = false;
        try {
          merged = j.ledger->complete(p.worker_id, lease, j.merger.get(), j.journal.get());
        } catch (const CheckpointIoError& e) {
          // The JOB's journal failed, not the worker or the server: fail
          // this job, keep serving the rest of the queue.
          fail_job(j, e.what());
          break;
        }
        if (merged && !r.exhausted()) {
          auto tel = get_telemetry(r);
          tel.shard = p.worker_id;
          j.worker_tel[p.worker_id] = tel;
        }
        if (merged && j.ledger->done()) finish_job(j);
        break;
      }
      case FrameType::kHeartbeat: {
        if (!f.payload.empty()) {
          ByteReader r(f.payload);
          p.isa = r.get_string();
          if (!r.exhausted()) {
            p.pulse = get_pulse(r);
            p.has_pulse = true;
          }
        }
        break;
      }
      case FrameType::kDone:
        ::close(p.fd);
        p.fd = -1;
        p.finished = true;
        break;
      case FrameType::kError: {
        ByteReader r(f.payload);
        throw std::runtime_error("worker reported: " + r.get_string());
      }
      default:
        throw std::runtime_error("unexpected frame type from fleet worker");
    }
  }

  // --- observability -------------------------------------------------------

  double fleet_mean_utilization() const {
    double sum = 0;
    int n = 0;
    for (const auto& p : peers) {
      if (p.kind != Peer::Kind::kWorker || p.fd < 0 || p.finished || !p.has_pulse) continue;
      sum += p.pulse.ema_utilization;
      ++n;
    }
    return n > 0 ? sum / n : -1;
  }

  void observe_fleet() {
    if (admission_last.seconds() < 1.0) return;
    admission_last.reset();
    const double mean = fleet_mean_utilization();
    if (mean >= 0) admission.observe_utilization(mean);
  }

  obs::ServerSample metrics_sample() const {
    obs::ServerSample s;
    s.queued = queued_count();
    s.running = uint64_t(running_count());
    for (const auto& p : peers)
      if (p.kind == Peer::Kind::kWorker && p.fd >= 0 && !p.finished) ++s.workers;
    s.running_limit = admission.running_limit();
    s.max_queued = admission.options().max_queued;
    const double mean = fleet_mean_utilization();
    s.fleet_utilization_ema = mean >= 0 ? mean : 0;
    s.submitted_total = submitted;
    s.rejected_total = rejected;
    s.cancelled_total = cancelled;
    s.completed_total = completed;
    s.failed_total = failed;
    for (const auto& t : shares.shares()) {
      obs::TenantSample ts;
      ts.tenant = t.tenant;
      ts.weight = t.weight;
      ts.virtual_time = t.virtual_time;
      ts.tasks_charged = t.tasks_charged;
      for (const auto& [id, j] : jobs) {
        if (j.spec.tenant != t.tenant || j.internal()) continue;
        if (j.state == JobState::kQueued) ++ts.queued;
        if (j.state == JobState::kRunning) ++ts.running;
      }
      s.tenants.push_back(std::move(ts));
    }
    return s;
  }

  obs::CacheSample cache_sample() const {
    obs::CacheSample s;
    auto tier = [](const char* name, const cache::TierStats& t) {
      obs::CacheTierSample o;
      o.tier = name;
      o.memory_hits = t.memory_hits;
      o.disk_hits = t.disk_hits;
      o.misses = t.misses;
      o.evictions = t.evictions;
      o.insertions = t.insertions;
      o.corrupt_dropped = t.corrupt_dropped;
      o.disk_bytes_written = t.disk_bytes_written;
      o.memory_entries = t.memory_entries;
      o.memory_bytes = t.memory_bytes;
      return o;
    };
    if (plan_cache != nullptr) s.tiers.push_back(tier("plan", plan_cache->stats()));
    if (result_cache != nullptr) {
      s.tiers.push_back(tier("result", result_cache->stats()));
      s.superset_hits = result_cache->superset_hits();
    }
    s.planner_invocations = path::find_path_invocations();
    s.served_results = served_from_cache;
    return s;
  }

  void maybe_write_metrics(bool force = false) {
    if (opt.metrics_interval_seconds <= 0 || opt.metrics_out.empty()) return;
    if (!force && metrics_last.seconds() < opt.metrics_interval_seconds) return;
    metrics_last.reset();
    obs::MetricsRegistry reg;
    obs::fill_server_metrics(reg, metrics_sample());
    obs::fill_cache_metrics(reg, cache_sample());
    reg.write_files(opt.metrics_out);  // best effort
  }

  std::string job_status_json(const ServerJob& j) const {
    std::ostringstream o;
    o.setf(std::ios::fixed);
    o << std::setprecision(3);
    const uint64_t done_tasks =
        j.ledger != nullptr ? j.ledger->tasks_done()
                            : (j.state == JobState::kDone ? j.total : 0);
    o << "{\"id\":" << j.id << ",\"name\":\"" << json_escape(j.spec.name) << "\",\"tenant\":\""
      << json_escape(j.spec.tenant) << "\",\"weight\":" << j.spec.weight
      << ",\"priority\":" << j.spec.priority << ",\"state\":\"" << job_state_name(j.state)
      << "\",\"total\":" << j.total << ",\"tasks_done\":" << done_tasks << ",\"progress\":"
      << (j.total > 0 ? double(done_tasks) / double(j.total)
                      : (j.state == JobState::kDone ? 1.0 : 0.0));
    if (j.spec.kind == "query") {
      // Query parents progress group by group; per-lease progress lives on
      // the (hidden) child actually holding the ledger.
      o << ",\"kind\":\"query\",\"groups\":" << j.query_groups
        << ",\"groups_done\":" << j.next_group
        << ",\"groups_from_cache\":" << j.query_cache_groups
        << ",\"group_contractions\":" << j.query_contractions;
    }
    if (j.ledger != nullptr) {
      o << ",\"pending_ranges\":" << j.ledger->pending_ranges()
        << ",\"active_leases\":" << j.ledger->active_leases();
      // Per-job progress straight from the live pulses: which workers have
      // contributed, and how much, as of their latest kRangeDone.
      o << ",\"workers\":[";
      bool first = true;
      for (const auto& [wid, tel] : j.worker_tel) {
        o << (first ? "" : ",") << "{\"id\":" << wid << ",\"tasks_run\":" << tel.tasks_run
          << ",\"leases\":" << tel.leases << ",\"isa\":\"" << json_escape(tel.isa)
          << "\"}";
        first = false;
      }
      o << "]";
    }
    if (j.state == JobState::kRunning)
      o << ",\"wall_seconds\":" << j.run_wall.seconds();
    else if (terminal(j.state))
      o << ",\"wall_seconds\":" << j.result.wall_seconds;
    if (terminal(j.state) && !j.result.error.empty())
      o << ",\"error\":\"" << json_escape(j.result.error) << "\"";
    o << "}";
    return o.str();
  }

  std::string server_status_json() const {
    std::ostringstream o;
    o.setf(std::ios::fixed);
    o << std::setprecision(3);
    o << "{\"build\":" << obs::build_info_json() << ",\"service\":\"ltns-jobserver\""
      << ",\"shutting_down\":" << (shutting_down ? "true" : "false")
      << ",\"queued\":" << queued_count() << ",\"running\":" << running_count()
      << ",\"submitted_total\":" << submitted << ",\"rejected_total\":" << rejected
      << ",\"completed_total\":" << completed << ",\"failed_total\":" << failed
      << ",\"cancelled_total\":" << cancelled
      << ",\"late_frames_dropped\":" << late_frames_dropped
      << ",\"served_from_cache_total\":" << served_from_cache;
    if (plan_cache != nullptr || result_cache != nullptr) {
      auto tier_json = [&o](const char* name, const cache::TierStats& t, bool lead_comma) {
        o << (lead_comma ? "," : "") << "\"" << name << "\":{\"memory_hits\":" << t.memory_hits
          << ",\"disk_hits\":" << t.disk_hits << ",\"misses\":" << t.misses
          << ",\"evictions\":" << t.evictions << ",\"insertions\":" << t.insertions
          << ",\"corrupt_dropped\":" << t.corrupt_dropped << ",\"memory_entries\":"
          << t.memory_entries << "}";
      };
      o << ",\"cache\":{\"dir\":\"" << json_escape(opt.cache.cache_dir) << "\"";
      if (plan_cache != nullptr) tier_json("plan", plan_cache->stats(), true);
      if (result_cache != nullptr) tier_json("result", result_cache->stats(), true);
      o << "}";
    }
    const double mean = fleet_mean_utilization();
    o << ",\"admission\":{\"running_limit\":" << admission.running_limit()
      << ",\"min_running\":" << admission.options().min_running
      << ",\"max_running\":" << admission.options().max_running
      << ",\"max_queued\":" << admission.options().max_queued
      << ",\"fleet_utilization_ema\":" << (mean >= 0 ? mean : 0) << "}";
    o << ",\"tenants\":[";
    bool first = true;
    for (const auto& t : shares.shares()) {
      o << (first ? "" : ",") << "{\"tenant\":\"" << json_escape(t.tenant)
        << "\",\"weight\":" << t.weight << ",\"virtual_time\":" << t.virtual_time
        << ",\"tasks_charged\":" << t.tasks_charged << "}";
      first = false;
    }
    o << "],\"workers\":[";
    first = true;
    for (const auto& p : peers) {
      if (p.kind != Peer::Kind::kWorker) continue;
      o << (first ? "" : ",") << "{\"id\":" << p.worker_id << ",\"isa\":\""
        << (p.isa.empty() ? "?" : json_escape(p.isa))
        << "\",\"alive\":" << (p.fd >= 0 && !p.finished ? "true" : "false")
        << ",\"parked\":" << (p.parked ? "true" : "false")
        << ",\"draining\":" << (p.draining ? "true" : "false")
        << ",\"stalled\":" << (p.stalled ? "true" : "false")
        << ",\"last_seen_seconds\":" << p.last_seen.seconds();
      if (p.has_pulse)
        o << ",\"utilization_ema\":" << p.pulse.ema_utilization
          << ",\"tasks_run\":" << p.pulse.tasks_run;
      o << "}";
      first = false;
    }
    o << "],\"jobs\":[";
    first = true;
    for (const auto& [id, j] : jobs) {
      if (j.internal()) continue;  // children are an implementation detail
      o << (first ? "" : ",") << job_status_json(j);
      first = false;
    }
    o << "]}";
    return o.str();
  }

  // --- main loop -----------------------------------------------------------

  void accept_peer() {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    set_rcv_timeout(fd, std::max(1.0, opt.stall_timeout_seconds));
    Peer p;
    p.fd = fd;
    peers.push_back(std::move(p));
  }

  std::string run() {
    std::signal(SIGPIPE, SIG_IGN);
    resume_scan();
    for (;;) {
      maybe_start_jobs();
      serve_parked();

      if (shutting_down && running_count() == 0) {
        for (auto& p : peers) {
          if (p.kind != Peer::Kind::kWorker || p.fd < 0 || p.finished || p.draining) continue;
          if (!p.parked) continue;  // computing workers get kDrain on next request
          p.parked = false;
          try {
            dispatch(p);  // done + shutting down -> sends kDrain
          } catch (...) {
            drop_peer(p);
          }
        }
        bool settled = true;
        for (const auto& p : peers)
          if (p.fd >= 0 && !p.finished) settled = false;
        if (settled) break;
      }

      // Prune spent control connections (a dashboard polling status every
      // second must not grow the peer table without bound).
      peers.erase(std::remove_if(peers.begin(), peers.end(),
                                 [](const Peer& p) {
                                   return p.fd < 0 && p.finished &&
                                          p.kind != Peer::Kind::kWorker;
                                 }),
                  peers.end());

      // Stall quarantine: a silent worker has its leases revoked across
      // every running job; if it recovers, its late results drop cleanly.
      const double stall = opt.stall_timeout_seconds;
      for (auto& p : peers) {
        if (p.kind != Peer::Kind::kWorker || p.fd < 0 || p.finished) continue;
        if (stall > 0 && !p.stalled && !p.parked && p.last_seen.seconds() > stall) {
          p.stalled = true;
          for (auto& [id, j] : jobs)
            if (j.state == JobState::kRunning && j.ledger != nullptr)
              j.ledger->revoke_worker(p.worker_id, /*lost=*/false);
        }
      }

      observe_fleet();
      maybe_write_metrics();

      std::vector<pollfd> pfds;
      std::vector<size_t> owner;
      pfds.push_back({listen_fd, POLLIN, 0});
      owner.push_back(size_t(-1));
      for (size_t i = 0; i < peers.size(); ++i) {
        if (peers[i].fd < 0) continue;
        pfds.push_back({peers[i].fd, POLLIN, 0});
        owner.push_back(i);
      }
      ::poll(pfds.data(), nfds_t(pfds.size()), 25);
      for (size_t k = 0; k < pfds.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        if (owner[k] == size_t(-1)) {
          accept_peer();
          continue;
        }
        Peer& p = peers[owner[k]];
        if (p.fd < 0) continue;
        try {
          Frame f;
          if (!read_frame(p.fd, &f)) {
            drop_peer(p);
            continue;
          }
          p.last_seen.reset();
          p.stalled = false;
          handle_frame(p, f);
        } catch (const std::exception& e) {
          (void)e;
          drop_peer(p);
        }
      }
    }
    maybe_write_metrics(/*force=*/true);
    for (auto& p : peers) {
      if (p.fd >= 0) ::close(p.fd);
      p.fd = -1;
    }
    return fatal;
  }
};

}  // namespace

std::string JobServer::serve() {
  ServerImpl impl(listen_fd_, opt_);
  return impl.run();
}

// --- fleet worker ----------------------------------------------------------

namespace {

// Everything a fleet worker caches per job id: the replanned contraction,
// the fused plan, the job's GEMM precision, and the cumulative telemetry
// it ships with every kRangeDone.
struct WorkerJobCtx {
  std::unique_ptr<Prepared> p;
  exec::FusedPlan fused_plan;
  bool has_fused = false;
  exec::Precision precision = exec::Precision::kFp32;
  uint64_t grain = 1;
  ShardTelemetry tel;
};

}  // namespace

int serve_fleet_worker(int fd, int worker_id, double heartbeat_seconds) {
  const ChaosHooks chaos = chaos_from_env(worker_id);
  Timer wall;

  std::mutex write_mu;
  auto send = [fd, &write_mu](FrameType t, const ByteWriter& w) {
    std::lock_guard<std::mutex> lock(write_mu);
    write_frame(fd, t, w);
  };
  std::mutex pulse_mu;
  WorkerPulse pulse;
  const std::string isa = exec::isa_name(device::cpu_probe().active);
  std::atomic<bool> stop{false};
  std::thread heartbeat([&] {
    if (heartbeat_seconds <= 0) return;
    Timer since;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (since.seconds() < heartbeat_seconds) continue;
      since.reset();
      try {
        ByteWriter hb;
        {
          std::lock_guard<std::mutex> lock(pulse_mu);
          hb.put_string(isa);
          put_pulse(hb, pulse);
        }
        send(FrameType::kHeartbeat, hb);
      } catch (...) {
        return;  // server gone; the compute loop will notice too
      }
    }
  });
  struct JoinGuard {
    std::atomic<bool>& stop;
    std::thread& t;
    ~JoinGuard() {
      stop.store(true);
      if (t.joinable()) t.join();
    }
  } guard{stop, heartbeat};

  int rc = 0;
  try {
    std::map<uint64_t, std::unique_ptr<WorkerJobCtx>> ctxs;
    std::unique_ptr<runtime::SliceScheduler> sched;
    uint64_t ranges_done = 0;

    for (;;) {
      {
        ByteWriter w;
        w.put<int32_t>(int32_t(worker_id));
        send(FrameType::kLeaseRequest, w);
      }
      // Between the request and its lease, kJob frames describe jobs this
      // worker has not planned yet.
      Frame f;
      bool drained = false;
      for (;;) {
        if (!read_frame(fd, &f)) throw std::runtime_error("server closed mid-run");
        if (f.type == FrameType::kDrain) {
          drained = true;
          break;
        }
        if (f.type == FrameType::kError) {
          ByteReader r(f.payload);
          throw std::runtime_error("server error: " + r.get_string());
        }
        if (f.type == FrameType::kJob) {
          ByteReader jr(f.payload);
          Job job = get_job(jr);
          auto ctx = std::make_unique<WorkerJobCtx>();
          auto circ = circuit::circuit_from_string(job.circuit_text);
          std::vector<int> bits;
          bits.reserve(job.bits.size());
          for (char ch : job.bits) bits.push_back(ch == '1');
          ctx->p = prepare_job(circ, bits, job.target_log2size, job.plan_seed, job.open_qubits);
          if (ctx->p->plan.num_slices() != int(job.num_slices))
            throw std::runtime_error(
                "plan mismatch for job " + std::to_string(job.job_id) + ": local |S| = " +
                std::to_string(ctx->p->plan.num_slices()) + ", server expected " +
                std::to_string(job.num_slices));
          ctx->precision = job.precision;
          if (job.fused != 0) {
            ctx->fused_plan = exec::plan_fused(ctx->p->plan.stem, ctx->p->plan.slices.to_vector(),
                                               size_t(job.ldm_elems));
            ctx->has_fused = true;
          }
          ctx->grain = job.grain;
          ctx->tel.shard = worker_id;
          ctx->tel.isa = isa;
          if (sched == nullptr)  // the first job sizes it; 0 workers = hardware
            sched = std::make_unique<runtime::SliceScheduler>(std::max(0, int(job.workers)));
          ctxs[job.job_id] = std::move(ctx);
          continue;
        }
        if (f.type == FrameType::kJobLease) break;
        throw std::runtime_error("unexpected frame while awaiting a job lease");
      }
      if (drained) break;

      ByteReader r(f.payload);
      const auto job_id = r.get<uint64_t>();
      const auto lease = r.get<uint64_t>();
      const auto first = r.get<uint64_t>();
      const auto count = r.get<uint64_t>();
      auto it = ctxs.find(job_id);
      if (it == ctxs.end())
        throw std::runtime_error("lease for job " + std::to_string(job_id) +
                                 " arrived before its job frame");
      WorkerJobCtx& ctx = *it->second;
      if (chaos.kill_after_ranges >= 0 && ranges_done >= uint64_t(chaos.kill_after_ranges)) {
        // Die exactly like a SIGKILLed node — no goodbye, holding a lease —
        // so the kill exercises the per-job revoke + requeue path.
        ::raise(SIGKILL);
      }

      ShardStreamOptions so;
      so.grain = ctx.grain;
      so.scheduler = sched.get();
      so.fused = ctx.has_fused ? &ctx.fused_plan : nullptr;
      so.precision = ctx.precision;
      auto leaves = [&ln = ctx.p->lowered](tn::VertId v) -> const exec::Tensor& {
        return ln.tensors[size_t(v)];
      };

      obs::TraceScope lease_tr(obs::EventKind::kLeaseWork, lease, first, count);
      for (const auto& block : aligned_blocks(first, count)) {
        auto partial = reduce_block(block, *ctx.p->plan.tree, leaves, ctx.p->plan.slices, so,
                                    &ctx.tel);
        {
          // Refresh the heartbeat sample with fleet-wide cumulative counts
          // (sums over every job this worker has touched).
          std::lock_guard<std::mutex> lock(pulse_mu);
          pulse.ema_utilization = ctx.tel.executor.ema_utilization;
          uint64_t tasks = 0, leases = 0;
          double bytes = 0, ns = 0;
          for (const auto& [id, c] : ctxs) {
            tasks += c->tel.tasks_run;
            leases += c->tel.leases;
            bytes += c->tel.executor.device.total_transfer_bytes();
            ns += c->tel.executor.device.ns_to_device + c->tel.executor.device.ns_to_host;
          }
          pulse.tasks_run = tasks;
          pulse.leases_completed = leases;
          pulse.device_bytes = bytes;
          pulse.device_ns = ns;
          pulse.wall_seconds = wall.seconds();
        }
        if (chaos.sleep_ms_per_task > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              int64_t(chaos.sleep_ms_per_task * 1000 * double(block.count()))));
        }
        ByteWriter w;
        w.put<uint64_t>(lease);
        w.put<int32_t>(int32_t(block.level));
        w.put<uint64_t>(block.index);
        put_tensor(w, partial);
        send(FrameType::kLeaseBlock, w);
      }
      ++ranges_done;
      ++ctx.tel.leases;
      ctx.tel.wall_seconds = wall.seconds();
      {
        // kRangeDone doubles as the per-job telemetry carrier in fleet
        // mode: the server keeps the latest cumulative snapshot per
        // (job, worker) and folds them into the job's result record.
        ByteWriter w;
        w.put<uint64_t>(lease);
        put_telemetry(w, ctx.tel);
        send(FrameType::kRangeDone, w);
      }
    }

    stop.store(true);
    if (heartbeat.joinable()) heartbeat.join();
    send(FrameType::kDone, ByteWriter{});
    // Linger until the server closes its end: exiting with unread bytes in
    // our receive buffer would RST the connection under the kDone frame.
    try {
      Frame f;
      while (read_frame(fd, &f)) {
      }
    } catch (...) {
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet worker %d: %s\n", worker_id, e.what());
    send_error(fd, e.what());
    rc = 1;
  }
  return rc;
}

}  // namespace ltns::dist

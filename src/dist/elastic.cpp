#include "dist/elastic.hpp"

#include "device/cpu_probe.hpp"
#include "dist/checkpoint.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ltns::dist {

namespace {

// Minimal JSON string escaping for worker-supplied text (ISA tier labels
// arrive verbatim from heartbeat payloads; a quote or control byte must
// not make the --status snapshot unparseable).
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

// Guards a blocking read_frame against a peer that wedges MID-frame (poll
// only proves the first byte arrived): the read times out, surfaces as an
// error, and the peer is treated as dead instead of freezing the loop.
void set_rcv_timeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = long(seconds);
  tv.tv_usec = long((seconds - double(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

ElasticCoordinator::ElasticCoordinator(uint64_t total, int home_workers,
                                       const ElasticOptions& opt)
    : total_(total), opt_(opt), ledger_(total, home_workers, opt.lease_size) {
  // Stall detection only works when heartbeats outpace the timeout. With
  // heartbeats disabled there is no way to tell slow from dead, so stall
  // revocation must be off too (death still surfaces as EOF) — otherwise
  // every long lease would be revoked, its result dropped as late, and
  // the same range re-issued forever: a livelock, not a safety net. With
  // heartbeats on, keep the timeout a few periods wide for the same
  // reason.
  if (opt_.heartbeat_seconds <= 0) {
    opt_.stall_timeout_seconds = 0;
  } else if (opt_.stall_timeout_seconds > 0) {
    opt_.stall_timeout_seconds =
        std::max(opt_.stall_timeout_seconds, 4 * opt_.heartbeat_seconds);
  }
}

// Bounds the waits that are NOT heartbeat-driven (mid-frame reads, the
// post-drain goodbye, an unfinished handshake) even when stall detection
// is disabled.
double ElasticCoordinator::goodbye_timeout() const {
  return opt_.stall_timeout_seconds > 0 ? std::max(1.0, opt_.stall_timeout_seconds) : 30.0;
}

void ElasticCoordinator::add_worker(int fd, int worker_id) {
  set_rcv_timeout(fd, goodbye_timeout());
  Peer p;
  p.fd = fd;
  p.id = worker_id;
  peers_.push_back(std::move(p));
  next_worker_id_ = std::max(next_worker_id_, worker_id + 1);
}

void ElasticCoordinator::set_listener(int listen_fd, JobSender send_job) {
  listen_fd_ = listen_fd;
  send_job_ = std::move(send_job);
}

void ElasticCoordinator::set_metrics_snapshot(std::string path, double interval_seconds) {
  metrics_path_ = std::move(path);
  metrics_interval_ = interval_seconds;
}

void ElasticCoordinator::maybe_write_metrics(bool force) {
  if (metrics_interval_ <= 0 || metrics_path_.empty()) return;
  if (!force && metrics_last_.seconds() < metrics_interval_) return;
  metrics_last_.reset();
  obs::MetricsRegistry reg;
  const auto& s = ledger_.stats();
  reg.gauge("ltns_coordinator_tasks_done", double(ledger_.tasks_done()));
  reg.gauge("ltns_coordinator_tasks_total", double(ledger_.total()));
  reg.gauge("ltns_coordinator_pending_ranges", double(ledger_.pending_ranges()));
  reg.gauge("ltns_coordinator_active_leases", double(ledger_.active_leases()));
  reg.counter("ltns_leases_issued_total", double(s.leases_issued));
  reg.counter("ltns_leases_completed_total", double(s.leases_completed));
  reg.counter("ltns_ranges_stolen_total", double(s.ranges_stolen));
  reg.counter("ltns_ranges_reissued_total", double(s.ranges_reissued));
  reg.counter("ltns_ranges_requeued_total", double(s.ranges_requeued));
  reg.counter("ltns_workers_lost_total", double(s.workers_lost));
  reg.counter("ltns_straggler_wait_seconds_total", s.straggler_wait_seconds);
  if (journal_ != nullptr && journal_->lag_seconds() >= 0)
    reg.gauge("ltns_journal_lag_seconds", journal_->lag_seconds());
  for (const auto& p : peers_) {
    if (p.id < 0) continue;
    const obs::Labels worker{{"worker", std::to_string(p.id)}};
    reg.gauge("ltns_worker_alive", p.fd >= 0 && !p.finished ? 1 : 0, worker);
    reg.gauge("ltns_worker_leases_completed", double(p.leases_completed), worker);
    if (p.has_pulse) {
      reg.gauge("ltns_worker_utilization_ema", p.pulse.ema_utilization, worker);
      reg.gauge("ltns_worker_tasks_run", double(p.pulse.tasks_run), worker);
      reg.gauge("ltns_worker_device_bytes", p.pulse.device_bytes, worker);
      reg.gauge("ltns_worker_device_ns", p.pulse.device_ns, worker);
      reg.gauge("ltns_worker_wall_seconds", p.pulse.wall_seconds, worker);
    }
  }
  // Best effort: a snapshot that cannot be written must not fail the run.
  reg.write_files(metrics_path_);
}

void ElasticCoordinator::send_lease_or_park(Peer& p) {
  if (ledger_.done()) {
    // Exactly ONE kDrain per peer: a duplicate would sit unread in the
    // worker's receive buffer when it exits, turning its close into a TCP
    // RST that can destroy the telemetry/done frames still in flight.
    if (!p.draining) {
      write_frame(p.fd, FrameType::kDrain, nullptr, 0);
      p.draining = true;
      p.drain_since.reset();
    }
    return;
  }
  Lease l;
  if (ledger_.acquire(p.id, &l)) {
    ByteWriter w;
    w.put<uint64_t>(l.id);
    w.put<uint64_t>(l.first);
    w.put<uint64_t>(l.count);
    write_frame(p.fd, FrameType::kLease, w);
  } else {
    // Every outstanding range is leased to someone else: park the request
    // and answer when a revoke requeues work or the run drains. The time
    // spent here is the straggler wait the telemetry reports.
    p.is_parked = true;
    p.parked.reset();
  }
}

void ElasticCoordinator::unpark(Peer& p) {
  if (!p.is_parked) return;
  ledger_.stats().straggler_wait_seconds += p.parked.seconds();
  p.is_parked = false;
}

void ElasticCoordinator::serve_parked(ShardMerger* merger) {
  for (auto& p : peers_) {
    if (p.fd < 0 || p.finished || !p.is_parked) continue;
    if (!ledger_.done() && ledger_.pending_ranges() == 0) continue;
    unpark(p);
    try {
      send_lease_or_park(p);
    } catch (...) {
      drop_peer(p, merger);
    }
  }
}

void ElasticCoordinator::drop_peer(Peer& p, ShardMerger* merger) {
  if (p.fd >= 0) {
    ::close(p.fd);
    p.fd = -1;
  }
  const bool was_finished = p.finished;
  p.finished = true;
  unpark(p);
  if (p.id >= 0 && !was_finished) {
    // A draining peer that has spoken already finished every lease —
    // losing only its goodbye frames is not a lost worker, and must not
    // trip the chaos job's `0 workers lost` assertion on an otherwise
    // clean run. A peer that never sent a frame died before doing any
    // work, even if the drain reached its socket buffer first.
    ledger_.revoke_worker(p.id, /*lost=*/!p.draining || !p.heard);
    serve_parked(merger);  // its requeued ranges may unblock idle peers
  }
}

void ElasticCoordinator::accept_peer() {
  int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  set_rcv_timeout(fd, goodbye_timeout());
  Peer p;
  p.fd = fd;
  p.id = -1;  // worker vs status probe decided by its first frame
  peers_.push_back(std::move(p));
}

void ElasticCoordinator::handle_frame(Peer& p, const Frame& f, ShardMerger* merger) {
  if (p.id < 0) {
    // Handshake: a worker says hello (and gets a job from the transport
    // layer), a status probe gets the JSON snapshot and is closed.
    if (f.type == FrameType::kStatusRequest) {
      ByteWriter w;
      w.put_string(status_json());
      try {
        write_frame(p.fd, FrameType::kStatus, w);
      } catch (...) {
      }
      ::close(p.fd);
      p.fd = -1;
      p.finished = true;
      return;
    }
    if (f.type != FrameType::kHello) throw std::runtime_error("peer did not say hello");
    const int id = next_worker_id_++;
    send_job_(p.fd, id);  // throws to reject the peer
    p.id = id;
    return;
  }
  switch (f.type) {
    case FrameType::kLeaseRequest: {
      // The payload's worker id must match the connection it arrived on —
      // a mismatch means a confused or buggy peer, not a scheduling race.
      if (!f.payload.empty()) {
        ByteReader r(f.payload);
        if (int(r.get<int32_t>()) != p.id)
          throw std::runtime_error("lease request carries a mismatched worker id");
      }
      send_lease_or_park(p);
      break;
    }
    case FrameType::kLeaseBlock: {
      ByteReader r(f.payload);
      const auto lease = r.get<uint64_t>();
      const int level = int(r.get<int32_t>());
      const auto index = r.get<uint64_t>();
      ledger_.add_block(p.id, lease, level, index, get_tensor(r));
      break;
    }
    case FrameType::kRangeDone: {
      ByteReader r(f.payload);
      // Write-ahead spill: the journal (when configured) records the range
      // before the merge inside complete() — see dist/checkpoint.hpp.
      if (ledger_.complete(p.id, r.get<uint64_t>(), merger, journal_)) ++p.leases_completed;
      break;
    }
    case FrameType::kHeartbeat: {
      // last_seen was already reset by the caller; the payload (optional)
      // advertises the worker's kernel ISA tier plus a WorkerPulse metrics
      // sample for status probes and the periodic metrics snapshot.
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
    case FrameType::kTrace:
      // The worker's serialized trace buffers, shipped right before its
      // final telemetry; merged into this process's flush under the
      // worker's own rank/pid.
      obs::Tracer::instance().ingest(f.payload);
      break;
    case FrameType::kTelemetry: {
      ByteReader r(f.payload);
      auto tel = get_telemetry(r);
      tel.shard = p.id;
      telemetry_.push_back(tel);
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
      throw std::runtime_error("unexpected frame type from worker");
  }
}

std::string ElasticCoordinator::run(ShardMerger* merger) {
  std::signal(SIGPIPE, SIG_IGN);
  Timer no_worker_timer;
  std::string peer_errors;
  std::string fatal;

  for (;;) {
    // Announce the drain as soon as the ledger finishes: parked workers
    // get it now, computing workers with their next lease request (the
    // unsolicited frame waits in their socket buffer).
    if (ledger_.done()) {
      for (auto& p : peers_) {
        if (p.fd < 0 || p.finished || p.draining || p.id < 0) continue;
        unpark(p);
        try {
          send_lease_or_park(p);  // done() -> sends kDrain exactly once
        } catch (...) {
          drop_peer(p, merger);
        }
      }
    }

    bool peers_settled = true;
    for (const auto& p : peers_)
      if (p.fd >= 0 && !p.finished) peers_settled = false;
    if (ledger_.done() && peers_settled) break;  // success

    // Prune spent status probes: a dashboard polling --status every second
    // for hours would otherwise grow peers_ (and every poll round's scan)
    // without bound. Worker entries stay — they are bounded by fleet size
    // and status_json reports them even after they finish.
    peers_.erase(std::remove_if(peers_.begin(), peers_.end(),
                                [](const Peer& p) {
                                  return p.id < 0 && p.fd < 0 && p.finished;
                                }),
                 peers_.end());

    // Stall quarantine + drain-phase timeout. A worker is quarantined for
    // silence alone, whether or not it holds leases: revoking a lease-less
    // worker is a no-op, but marking it stalled is what lets the dead-end
    // timeout below fire instead of waiting on a frozen fleet forever.
    const double stall = opt_.stall_timeout_seconds;
    for (auto& p : peers_) {
      if (p.fd < 0 || p.finished) continue;
      if (stall > 0 && !p.stalled && p.id >= 0 && !p.is_parked &&
          p.last_seen.seconds() > stall) {
        // Heartbeats stopped but the socket is still open: revoke its
        // leases for idle peers. If it recovers, its late results are
        // dropped and it can lease fresh work.
        p.stalled = true;
        ledger_.revoke_worker(p.id, /*lost=*/false);
        serve_parked(merger);
      }
      if (p.draining && p.drain_since.seconds() > goodbye_timeout())
        drop_peer(p, merger);  // never said kDone; give up on its telemetry
      if (p.id < 0 && p.last_seen.seconds() > goodbye_timeout())
        drop_peer(p, merger);  // connected but never completed the handshake
    }

    // Dead-end detection: can anything still make progress?
    int live = 0, productive = 0;
    for (const auto& p : peers_) {
      if (p.fd >= 0 && !p.finished && p.id >= 0) {
        ++live;
        if (!p.stalled) ++productive;
      }
    }
    if (!ledger_.done()) {
      if (productive > 0) no_worker_timer.reset();
      const bool can_join = listen_fd_ >= 0;
      if (productive == 0) {
        const uint64_t left = ledger_.total() - ledger_.tasks_done();
        if (live == 0 && !can_join) {
          fatal = "all workers died with " + std::to_string(left) + " of " +
                  std::to_string(ledger_.total()) + " tasks outstanding";
        } else if (opt_.accept_timeout_seconds > 0 &&
                   no_worker_timer.seconds() > double(opt_.accept_timeout_seconds)) {
          fatal = "timed out waiting for a live worker with " + std::to_string(left) +
                  " tasks outstanding";
        }
      }
      if (!fatal.empty()) break;
    }

    maybe_write_metrics();

    // One poll round over the listener + every open peer.
    std::vector<pollfd> pfds;
    std::vector<size_t> owner;  // pfds index -> peers_ index; listener = SIZE_MAX
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      owner.push_back(size_t(-1));
    }
    for (size_t i = 0; i < peers_.size(); ++i) {
      if (peers_[i].fd < 0) continue;
      pfds.push_back({peers_[i].fd, POLLIN, 0});
      owner.push_back(i);
    }
    ::poll(pfds.data(), nfds_t(pfds.size()), 25);
    for (size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (owner[k] == size_t(-1)) {
        accept_peer();  // may push_back: take peer refs fresh below
        continue;
      }
      Peer& p = peers_[owner[k]];
      if (p.fd < 0) continue;  // dropped earlier in this round
      try {
        Frame f;
        if (!read_frame(p.fd, &f)) {
          drop_peer(p, merger);
          continue;
        }
        p.last_seen.reset();
        p.stalled = false;
        p.heard = true;
        handle_frame(p, f, merger);
      } catch (const CheckpointIoError& e) {
        // The JOURNAL failed (ENOSPC, EIO), not the worker whose frame
        // triggered the write: fail the run. Blaming the peer would drop
        // healthy workers one by one — each recomputing the range, hitting
        // the same disk error — while silently losing the durability
        // guarantee the spill dir was asked for.
        fatal = e.what();
        break;
      } catch (const std::exception& e) {
        if (p.id >= 0) {
          if (!peer_errors.empty()) peer_errors += "; ";
          peer_errors += "worker " + std::to_string(p.id) + ": " + e.what();
        }
        drop_peer(p, merger);
      }
    }
    if (!fatal.empty()) break;
  }

  maybe_write_metrics(/*force=*/true);  // terminal state for scrapers
  for (auto& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }
  std::sort(telemetry_.begin(), telemetry_.end(),
            [](const ShardTelemetry& a, const ShardTelemetry& b) { return a.shard < b.shard; });
  if (!fatal.empty() && !peer_errors.empty()) fatal += " (" + peer_errors + ")";
  error_ = fatal;
  return fatal;
}

std::string ElasticCoordinator::status_json() const {
  std::ostringstream o;
  o.setf(std::ios::fixed);
  o << std::setprecision(3);
  o << "{\"build\":" << obs::build_info_json() << ",\"total\":" << total_
    << ",\"tasks_done\":" << ledger_.tasks_done()
    << ",\"pending_ranges\":" << ledger_.pending_ranges()
    << ",\"lease_size\":" << ledger_.lease_size() << ",\"active_leases\":[";
  bool first = true;
  for (const auto& l : ledger_.active()) {
    o << (first ? "" : ",") << "{\"lease\":" << l.id << ",\"worker\":" << l.worker
      << ",\"first\":" << l.first << ",\"count\":" << l.count << "}";
    first = false;
  }
  o << "],\"workers\":[";
  first = true;
  for (const auto& p : peers_) {
    if (p.id < 0) continue;
    o << (first ? "" : ",") << "{\"id\":" << p.id << ",\"isa\":\""
      << (p.isa.empty() ? "?" : json_escape(p.isa)) << "\",\"alive\":"
      << (p.fd >= 0 ? "true" : "false") << ",\"stalled\":" << (p.stalled ? "true" : "false")
      << ",\"parked\":" << (p.is_parked ? "true" : "false")
      << ",\"draining\":" << (p.draining ? "true" : "false")
      << ",\"last_seen_seconds\":" << p.last_seen.seconds()
      << ",\"leases_completed\":" << p.leases_completed << "}";
    first = false;
  }
  const auto& s = ledger_.stats();
  o << "],\"rebalance\":{\"leases_issued\":" << s.leases_issued
    << ",\"leases_completed\":" << s.leases_completed
    << ",\"ranges_stolen\":" << s.ranges_stolen
    << ",\"ranges_reissued\":" << s.ranges_reissued
    << ",\"ranges_requeued\":" << s.ranges_requeued
    << ",\"late_results_dropped\":" << s.late_results_dropped
    << ",\"workers_lost\":" << s.workers_lost
    << ",\"ranges_replayed\":" << s.ranges_replayed
    << ",\"tasks_replayed\":" << s.tasks_replayed
    << ",\"straggler_wait_seconds\":" << s.straggler_wait_seconds << "}";
  // Live metrics section: the latest heartbeat pulse per worker plus
  // fleet-level rates — what `coordinate --status` dashboards key on.
  o << ",\"metrics\":{\"workers\":[";
  first = true;
  for (const auto& p : peers_) {
    if (p.id < 0 || !p.has_pulse) continue;
    const double db = p.pulse.device_ns > 0 ? p.pulse.device_bytes / p.pulse.device_ns : 0;
    o << (first ? "" : ",") << "{\"id\":" << p.id
      << ",\"utilization_ema\":" << p.pulse.ema_utilization
      << ",\"tasks_run\":" << p.pulse.tasks_run
      << ",\"leases_completed\":" << p.pulse.leases_completed
      << ",\"device_bytes\":" << p.pulse.device_bytes
      << ",\"device_ns\":" << p.pulse.device_ns << ",\"device_bytes_per_ns\":" << db
      << ",\"wall_seconds\":" << p.pulse.wall_seconds << "}";
    first = false;
  }
  const double issued = double(std::max<uint64_t>(1, s.leases_issued));
  o << "],\"steal_rate\":" << double(s.ranges_stolen) / issued
    << ",\"requeue_rate\":" << double(s.ranges_requeued) / issued;
  if (journal_ != nullptr && journal_->lag_seconds() >= 0)
    o << ",\"journal_lag_seconds\":" << journal_->lag_seconds();
  o << "}";
  // Spill-dir health (journal size, fsync age) when the durable run ledger
  // is on — the `coordinate --status` view of checkpoint lag.
  if (journal_ != nullptr) {
    const auto health = journal_->health_json();
    if (!health.empty()) o << ",\"spill\":" << health;
  }
  o << "}";
  return o.str();
}

// --- worker half ----------------------------------------------------------

ChaosHooks chaos_from_env(int worker_id) {
  auto selects_me = [worker_id](const char* s) {
    return s != nullptr && (std::strcmp(s, "any") == 0 || std::atoi(s) == worker_id);
  };
  ChaosHooks h;
  if (selects_me(std::getenv("LTNS_CHAOS_KILL_SHARD"))) {
    h.kill_after_ranges = 1;
    if (const char* a = std::getenv("LTNS_CHAOS_KILL_AFTER_RANGES")) h.kill_after_ranges = std::atoi(a);
  }
  if (selects_me(std::getenv("LTNS_CHAOS_SLEEP_SHARD"))) {
    h.sleep_ms_per_task = 20;
    if (const char* m = std::getenv("LTNS_CHAOS_SLEEP_MS")) h.sleep_ms_per_task = std::atof(m);
  }
  return h;
}

void serve_elastic_shard(int fd, const tn::ContractionTree& tree,
                         const exec::LeafProvider& leaves, const core::SliceSet& slices,
                         const ElasticWorkerOptions& opt) {
  const ChaosHooks chaos = chaos_from_env(opt.worker_id);
  ShardTelemetry tel;
  tel.shard = opt.worker_id;
  const std::string isa = exec::isa_name(device::cpu_probe().active);
  tel.isa = isa;
  Timer wall;

  // The compute thread and the heartbeat thread share the socket: one
  // mutex keeps frames from interleaving mid-write.
  std::mutex write_mu;
  auto send = [fd, &write_mu](FrameType t, const ByteWriter& w) {
    std::lock_guard<std::mutex> lock(write_mu);
    write_frame(fd, t, w);
  };
  // Live metrics sample shared between the compute thread (writes after
  // each finished block) and the heartbeat thread (reads + serializes).
  std::mutex pulse_mu;
  WorkerPulse pulse;
  std::atomic<bool> stop{false};
  std::thread heartbeat([&] {
    if (opt.heartbeat_seconds <= 0) return;  // disabled (stall-test hook)
    Timer since;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (since.seconds() < opt.heartbeat_seconds) continue;
      since.reset();
      try {
        // Heartbeats advertise the ISA tier this worker's kernels run at
        // plus the latest WorkerPulse, so a status probe sees the fleet's
        // tier mix AND per-worker utilization live.
        ByteWriter hb;
        hb.put_string(isa);
        {
          std::lock_guard<std::mutex> lock(pulse_mu);
          put_pulse(hb, pulse);
        }
        send(FrameType::kHeartbeat, hb);
      } catch (...) {
        return;  // coordinator gone; the compute thread will notice too
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

  uint64_t ranges_done = 0;
  for (;;) {
    {
      ByteWriter w;
      w.put<int32_t>(int32_t(opt.worker_id));
      send(FrameType::kLeaseRequest, w);
    }
    Frame f;
    if (!read_frame(fd, &f)) throw std::runtime_error("coordinator closed mid-run");
    if (f.type == FrameType::kDrain) break;
    if (f.type == FrameType::kError) {
      ByteReader r(f.payload);
      throw std::runtime_error("coordinator error: " + r.get_string());
    }
    if (f.type != FrameType::kLease)
      throw std::runtime_error("unexpected frame while awaiting a lease");
    ByteReader r(f.payload);
    const auto lease = r.get<uint64_t>();
    const auto first = r.get<uint64_t>();
    const auto count = r.get<uint64_t>();
    if (chaos.kill_after_ranges >= 0 && ranges_done >= uint64_t(chaos.kill_after_ranges)) {
      // Die exactly like a SIGKILLed node — no goodbye frame, no cleanup —
      // and die HOLDING this lease, so the kill exercises the revoke +
      // requeue path, not just the loss of an idle worker.
      ::raise(SIGKILL);
    }

    obs::TraceScope lease_tr(obs::EventKind::kLeaseWork, lease, first, count);
    for (const auto& block : aligned_blocks(first, count)) {
      auto partial = reduce_block(block, tree, leaves, slices, opt.stream, &tel);
      {
        // Refresh the heartbeat's metrics sample with the post-block view.
        std::lock_guard<std::mutex> lock(pulse_mu);
        pulse.ema_utilization = tel.executor.ema_utilization;
        pulse.tasks_run = tel.tasks_run;
        pulse.leases_completed = tel.leases;
        pulse.device_bytes = tel.executor.device.total_transfer_bytes();
        pulse.device_ns = tel.executor.device.ns_to_device + tel.executor.device.ns_to_host;
        pulse.wall_seconds = wall.seconds();
      }
      if (chaos.sleep_ms_per_task > 0) {
        // Artificial straggler: the block still completes (heartbeats keep
        // this worker alive), it is just slow — the rest of the fleet must
        // absorb its home window via steals.
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
    {
      ByteWriter w;
      w.put<uint64_t>(lease);
      send(FrameType::kRangeDone, w);
    }
    ++ranges_done;
    ++tel.leases;
  }

  tel.wall_seconds = wall.seconds();
  // Quiesce the heartbeat thread BEFORE serializing trace buffers: it
  // records wire_send events of its own, and serialize() must not race a
  // live writer. The JoinGuard's later join is a no-op (joinable() check).
  stop.store(true);
  if (heartbeat.joinable()) heartbeat.join();
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    const auto chunk = tracer.serialize();
    std::lock_guard<std::mutex> lock(write_mu);
    write_frame(fd, FrameType::kTrace, chunk.data(), chunk.size());
  }
  {
    ByteWriter w;
    put_telemetry(w, tel);
    send(FrameType::kTelemetry, w);
  }
  send(FrameType::kDone, ByteWriter{});
  // Linger until the coordinator closes its end: exiting with anything
  // unread in our receive buffer would RST the connection and could tear
  // the telemetry/done frames out from under the coordinator.
  try {
    Frame f;
    while (read_frame(fd, &f)) {
    }
  } catch (...) {
  }
}

}  // namespace ltns::dist

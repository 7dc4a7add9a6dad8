#include "dist/service.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <sys/time.h>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "circuit/io.hpp"
#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "dist/checkpoint.hpp"
#include "dist/elastic.hpp"
#include "dist/job.hpp"
#include "dist/server.hpp"
#include "dist/shard_merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_stream.hpp"
#include "obs/trace.hpp"
#include "runtime/slice_scheduler.hpp"
#include "util/timer.hpp"

// The job/spec/result wire payloads, the deterministic prepare_job pipeline
// and the socket helpers live in dist/job.hpp — shared with the multi-tenant
// job server (dist/server.hpp) and its client (dist/client.hpp).

namespace ltns::dist {

CoordinatorServer::CoordinatorServer(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("dist service: socket failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    close_fd(&listen_fd_);
    throw std::runtime_error("dist service: bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

CoordinatorServer::~CoordinatorServer() { close_fd(&listen_fd_); }

CoordinatorResult CoordinatorServer::run_amplitude(int num_workers, const circuit::Circuit& c,
                                                   const std::vector<int>& bits,
                                                   const ServiceOptions& opt) {
  std::signal(SIGPIPE, SIG_IGN);
  CoordinatorResult res;
  Timer wall;
  auto prep = prepare_job(c, bits, opt.target_log2size, core::PlanOptions{}.seed);
  Prepared& p = *prep;
  res.num_slices = p.plan.num_slices();
  if (p.plan.num_slices() >= 57) {  // same bound run_sharded enforces
    res.error = "too many sliced edges";
    return res;
  }
  const uint64_t total = uint64_t(1) << p.plan.num_slices();
  const auto shards = make_shard_plan(total, std::max(1, num_workers));

  Job base;
  base.circuit_text = circuit::circuit_to_string(c);
  base.bits.reserve(bits.size());
  for (int b : bits) base.bits.push_back(b != 0 ? '1' : '0');
  base.target_log2size = opt.target_log2size;
  base.plan_seed = core::PlanOptions{}.seed;
  base.executor = uint32_t(opt.executor);
  base.grain = opt.grain;
  base.workers = opt.workers_per_process;
  base.num_slices = int32_t(p.plan.num_slices());
  base.fused = opt.fused ? 1 : 0;
  base.ldm_elems = opt.ldm_elems;
  base.precision = opt.precision;
  base.trace = opt.trace ? 1 : 0;

  // Shared tail of both drivers: fold the merged root into the amplitude.
  auto finish_amplitude = [&p, &res](ShardMerger& merger) {
    if (!res.error.empty()) return;
    if (!merger.complete()) {
      res.error = "reduction incomplete despite clean workers";
      return;
    }
    auto root = merger.take_root();
    if (root.rank() != 0 || root.size() != 1) {
      res.error = "amplitude job produced a non-scalar root";
      return;
    }
    res.amplitude = std::complex<double>(root.data()[0]) * p.lowered.scalar;
    res.completed = true;
  };

  if (opt.elastic) {
    // Elastic: the coordinator's poll loop owns the listener — workers
    // join whenever they connect (even mid-run, `num_workers` is only the
    // notional home-window count for the lease queue), status probes are
    // answered in-line, and dead or stalled workers have their leases
    // requeued instead of failing the run.
    ElasticOptions eo;
    eo.lease_size = opt.lease_size;
    eo.heartbeat_seconds = opt.heartbeat_seconds;
    eo.stall_timeout_seconds = opt.stall_timeout_seconds;
    eo.accept_timeout_seconds = opt.accept_timeout_seconds;
    ElasticCoordinator coord(total, std::max(1, num_workers), eo);
    if (!opt.metrics_out.empty() && opt.metrics_interval_seconds > 0)
      coord.set_metrics_snapshot(opt.metrics_out, opt.metrics_interval_seconds);
    coord.set_listener(listen_fd_, [&](int fd, int worker_id) {
      Job j = base;
      j.elastic = 1;
      j.heartbeat_seconds = opt.heartbeat_seconds;
      j.shard_id = worker_id;
      ByteWriter w;
      put_job(w, j);
      write_frame(fd, FrameType::kJob, w);
    });
    ShardMerger merger(total);
    // Durable run ledger: replay a crashed coordinator's journal into the
    // fresh ledger + merger, then spill every completed range write-ahead.
    std::unique_ptr<CheckpointWriter> journal;
    if (!opt.spill_dir.empty()) {
      try {
        CheckpointMeta meta;
        meta.total = total;
        meta.home_workers = std::max(1, num_workers);
        meta.lease_size = coord.ledger().lease_size();
        // Canonical fingerprint over the job inputs + the resolved plan:
        // matches what the Simulator writes for the same job, so a journal
        // spilled by the fork driver can resume here and vice versa.
        meta.run_id = run_fingerprint(base.circuit_text, base.bits, /*open_qubits=*/"",
                                      opt.fused, opt.ldm_elems, p.plan.path,
                                      p.plan.slices.to_vector());
        journal = open_or_resume_journal(opt.spill_dir, meta, opt.resume,
                                         opt.spill_fsync_seconds, &coord.mutable_ledger(),
                                         &merger);
        coord.set_journal(journal.get());
      } catch (const std::exception& e) {
        res.error = e.what();
        res.rebalance = coord.ledger().stats();
        res.wall_seconds = wall.seconds();
        return res;
      }
    }
    res.error = coord.run(&merger);
    if (journal && res.error.empty()) {
      // Clean finish: close the writer, then shrink the journal to its
      // single-span form so an unconditional --resume replays one record.
      coord.set_journal(nullptr);
      journal.reset();
      try {
        compact_checkpoint(opt.spill_dir);
      } catch (const std::exception&) {
        // Compaction is an optimization; the full journal still resumes.
      }
    }
    res.shards = coord.telemetry();
    res.rebalance = coord.ledger().stats();
    for (const auto& t : res.shards) res.tasks_run += t.tasks_run;
    res.wall_seconds = wall.seconds();
    finish_amplitude(merger);
    return res;
  }

  // Accept every worker and hand out all the jobs BEFORE draining any
  // result stream, so the shards run concurrently. The accept wait is
  // bounded: a worker that dies before connecting must produce an error,
  // not an indefinite hang (socket EOF only covers connected workers).
  if (opt.accept_timeout_seconds > 0) {
    timeval tv{};
    tv.tv_sec = opt.accept_timeout_seconds;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  std::vector<int> fds(size_t(num_workers), -1);
  for (int i = 0; i < num_workers && res.error.empty(); ++i) {
    for (;;) {  // re-accept this slot when a non-worker connection shows up
      fds[size_t(i)] = ::accept(listen_fd_, nullptr, nullptr);
      if (fds[size_t(i)] < 0) {
        res.error = (errno == EAGAIN || errno == EWOULDBLOCK)
                        ? "timed out waiting for worker " + std::to_string(i) + " to connect"
                        : "accept failed";
        break;
      }
      // Accepted sockets inherit the listener's SO_RCVTIMEO on Linux; clear
      // it so a long-running shard (first block slower than the accept
      // timeout) doesn't turn into a spurious read error mid-drain.
      timeval no_timeout{};
      ::setsockopt(fds[size_t(i)], SOL_SOCKET, SO_RCVTIMEO, &no_timeout, sizeof(no_timeout));
      try {
        Frame hello;
        if (!read_frame(fds[size_t(i)], &hello) || hello.type != FrameType::kHello) {
          // A stray status probe (or any non-worker) must not consume a
          // worker slot and abort a whole fleet's run: answer and keep
          // waiting for the real worker.
          if (hello.type == FrameType::kStatusRequest) {
            send_error(fds[size_t(i)],
                       "this coordinator runs the static driver; live lease state "
                       "exists only under --elastic");
            close_fd(&fds[size_t(i)]);
            continue;
          }
          throw std::runtime_error("worker did not say hello");
        }
        Job j = base;
        j.shard_id = i;
        j.first = shards[size_t(i)].first;
        j.count = shards[size_t(i)].count;
        ByteWriter w;
        put_job(w, j);
        write_frame(fds[size_t(i)], FrameType::kJob, w);
      } catch (const std::exception& e) {
        res.error = "worker " + std::to_string(i) + ": " + e.what();
      }
      break;
    }
  }

  ShardMerger merger(total);
  res.shards.assign(size_t(num_workers), {});
  if (res.error.empty()) {
    for (int i = 0; i < num_workers; ++i) {
      auto err = drain_shard_stream(fds[size_t(i)], &merger, &res.shards[size_t(i)]);
      if (!err.empty()) {
        if (!res.error.empty()) res.error += "; ";
        res.error += "worker " + std::to_string(i) + ": " + err;
      }
    }
  }
  for (int& fd : fds) close_fd(&fd);

  for (const auto& t : res.shards) res.tasks_run += t.tasks_run;
  res.wall_seconds = wall.seconds();
  finish_amplitude(merger);
  return res;
}

int serve_worker(const std::string& host, uint16_t port) {
  std::signal(SIGPIPE, SIG_IGN);
  // ~10s of connect retries: workers may be launched before (or alongside)
  // the coordinator.
  int fd = connect_to(host, port, 20);
  if (fd < 0) return 2;

  int rc = 0;
  try {
    write_frame(fd, FrameType::kHello, nullptr, 0);
    Frame f;
    if (!read_frame(fd, &f)) throw std::runtime_error("expected a job frame");
    if (f.type == FrameType::kWelcome) {
      // A kWelcome instead of a kJob means the peer is the multi-tenant job
      // server: same `ltns_cli worker` binary joins either kind of
      // coordinator, the first frame decides which protocol it speaks.
      ByteReader wr(f.payload);
      const int worker_id = int(wr.get<int32_t>());
      const double heartbeat_seconds = wr.get<double>();
      rc = serve_fleet_worker(fd, worker_id, heartbeat_seconds);
      ::close(fd);
      return rc;
    }
    if (f.type != FrameType::kJob) throw std::runtime_error("expected a job frame");
    ByteReader jr(f.payload);
    Job job = get_job(jr);

    // A traced job arms this process's tracer under its assigned worker id;
    // the chunk ships back over kTrace at drain time, so the coordinator's
    // timeline renders one lane per remote process.
    if (job.trace != 0) obs::Tracer::instance().enable(int(job.shard_id));

    auto circ = circuit::circuit_from_string(job.circuit_text);
    std::vector<int> bits;
    bits.reserve(job.bits.size());
    for (char ch : job.bits) bits.push_back(ch == '1');
    auto prep = prepare_job(circ, bits, job.target_log2size, job.plan_seed, job.open_qubits);
    Prepared& p = *prep;
    if (p.plan.num_slices() != int(job.num_slices))
      throw std::runtime_error("plan mismatch: local |S| = " +
                               std::to_string(p.plan.num_slices()) + ", coordinator expected " +
                               std::to_string(job.num_slices));
    const uint64_t totalv = uint64_t(1) << p.plan.num_slices();
    if (job.first + job.count > totalv)
      throw std::runtime_error("shard window outside the task range");

    const int workers = job.workers > 0 ? job.workers : 0;  // 0 = hardware
    ThreadPool pool(workers);
    runtime::SliceScheduler sched(workers);
    auto leaves = [&ln = p.lowered](tn::VertId v) -> const exec::Tensor& {
      return ln.tensors[size_t(v)];
    };
    exec::FusedPlan fused_plan;
    const exec::FusedPlan* fused = nullptr;
    if (job.fused != 0) {
      fused_plan =
          exec::plan_fused(p.plan.stem, p.plan.slices.to_vector(), size_t(job.ldm_elems));
      fused = &fused_plan;
    }

    ShardStreamOptions so;
    so.executor = exec::SliceExecutor(job.executor);
    so.grain = job.grain;
    so.pool = &pool;
    so.scheduler = &sched;
    so.fused = fused;
    so.precision = job.precision;
    if (job.elastic != 0) {
      ElasticWorkerOptions eo;
      eo.stream = so;
      eo.worker_id = int(job.shard_id);
      eo.heartbeat_seconds = job.heartbeat_seconds;
      serve_elastic_shard(fd, *p.plan.tree, leaves, p.plan.slices, eo);
    } else {
      stream_shard_window(fd, int(job.shard_id), job.first, job.count, *p.plan.tree, leaves,
                          p.plan.slices, so);
    }
  } catch (const std::exception& e) {
    send_error(fd, e.what());
    rc = 1;
  }
  ::close(fd);
  return rc;
}

std::string query_status(const std::string& host, uint16_t port) {
  std::signal(SIGPIPE, SIG_IGN);
  // One attempt: a probe should fail fast when nothing is listening.
  int fd = connect_to(host, port, 1);
  if (fd < 0)
    throw std::runtime_error("status: no coordinator listening on " + host + ":" +
                             std::to_string(port));
  try {
    write_frame(fd, FrameType::kStatusRequest, nullptr, 0);
    Frame f;
    if (!read_frame(fd, &f)) throw std::runtime_error("status: coordinator did not answer");
    ByteReader r(f.payload);
    if (f.type == FrameType::kError) throw std::runtime_error("status: " + r.get_string());
    if (f.type != FrameType::kStatus)
      throw std::runtime_error("status: unexpected reply frame");
    auto json = r.get_string();
    ::close(fd);
    return json;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace ltns::dist

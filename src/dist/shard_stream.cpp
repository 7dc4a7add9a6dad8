#include "dist/shard_stream.hpp"

#include <stdexcept>
#include <utility>

#include "device/cpu_probe.hpp"
#include "dist/shard_plan.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ltns::dist {

exec::Tensor reduce_block(const AlignedBlock& block, const tn::ContractionTree& tree,
                          const exec::LeafProvider& leaves, const core::SliceSet& slices,
                          const ShardStreamOptions& opt, ShardTelemetry* tel) {
  exec::SliceRunOptions ro;
  ro.first_task = block.first();
  ro.num_tasks = block.count();
  ro.executor = opt.executor;
  ro.pool = opt.pool;
  ro.scheduler = opt.scheduler;
  ro.grain = opt.grain;
  ro.fused = opt.fused;
  ro.precision = opt.precision;
  auto r = exec::run_sliced(tree, leaves, slices, ro);
  if (!r.completed) throw std::runtime_error("block run did not complete");
  tel->tasks_run += r.tasks_run;
  tel->reduce_merges += r.reduce_merges;
  tel->executor.merge(r.executor_stats);
  tel->memory.merge(r.memory);
  tel->exec.merge(r.stats);
  return std::move(r.accumulated);
}

void stream_shard_window(int fd, int shard_id, uint64_t first, uint64_t count,
                         const tn::ContractionTree& tree, const exec::LeafProvider& leaves,
                         const core::SliceSet& slices, const ShardStreamOptions& opt) {
  ShardTelemetry tel;
  tel.shard = shard_id;
  tel.first = first;
  tel.count = count;
  tel.isa = exec::isa_name(device::cpu_probe().active);
  Timer wall;
  for (const auto& block : aligned_blocks(first, count)) {
    auto partial = reduce_block(block, tree, leaves, slices, opt, &tel);
    ByteWriter w;
    w.put<int32_t>(int32_t(block.level));
    w.put<uint64_t>(block.index);
    put_tensor(w, partial);
    write_frame(fd, FrameType::kBlock, w);
  }
  tel.wall_seconds = wall.seconds();
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    const auto chunk = tracer.serialize();
    write_frame(fd, FrameType::kTrace, chunk.data(), chunk.size());
  }
  ByteWriter w;
  put_telemetry(w, tel);
  write_frame(fd, FrameType::kTelemetry, w);
  write_frame(fd, FrameType::kDone, nullptr, 0);
}

std::string drain_shard_stream(int fd, ShardMerger* merger, ShardTelemetry* telemetry) {
  try {
    Frame f;
    while (read_frame(fd, &f)) {
      ByteReader r(f.payload);
      switch (f.type) {
        case FrameType::kBlock: {
          const int level = int(r.get<int32_t>());
          const auto index = r.get<uint64_t>();
          merger->add(level, index, get_tensor(r));
          break;
        }
        case FrameType::kTelemetry:
          *telemetry = get_telemetry(r);
          break;
        case FrameType::kTrace:
          obs::Tracer::instance().ingest(f.payload);
          break;
        case FrameType::kDone:
          return {};
        case FrameType::kError:
          return r.get_string();
        default:
          return "unexpected frame type";
      }
    }
    return "peer exited before finishing its window";
  } catch (const std::exception& e) {
    return e.what();
  }
}

}  // namespace ltns::dist

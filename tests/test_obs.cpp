// Unit tests for the observability layer (src/obs/): the per-thread
// ring-buffer tracer and its chunk wire format, the Chrome trace-event JSON
// flush, the metrics registry (JSON + Prometheus exposition), and the
// WorkerPulse heartbeat payload.
//
// The Tracer is a process-global singleton; tests share it. Each test that
// records events first calls reset_tracer(), which re-arms the tracer and
// wipes the calling thread's ring plus any ingested foreign chunks. The
// ring capacity of a thread's buffer is fixed at first use, so every test
// here is written against the same small capacity (kTestCapacity).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dist/lease.hpp"
#include "dist/wire.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/executor_stats.hpp"
#include "runtime/memory_stats.hpp"

namespace ltns::obs {
namespace {

constexpr size_t kTestCapacity = 8;

void reset_tracer(int rank) {
  Tracer& t = Tracer::instance();
  t.enable(rank, kTestCapacity);
  // Also clears the calling thread's ring and all ingested chunks — exactly
  // what a forked worker does to drop inherited parent events.
  t.reset_after_fork(rank);
}

size_t count_occurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos; pos = hay.find(needle, pos + 1))
    ++n;
  return n;
}

TEST(Tracer, DisabledScopesRecordNothing) {
  reset_tracer(0);
  Tracer::instance().disable();
  const uint64_t before = Tracer::instance().events_recorded();
  {
    TraceScope ts(EventKind::kGemm, 64, 32);
    EXPECT_FALSE(ts.armed());  // never read the clock when tracing is off
  }
  trace_instant(EventKind::kLeaseRequeue, 3, 4);
  EXPECT_EQ(Tracer::instance().events_recorded(), before);
}

TEST(Tracer, ScopeRecordsOneCompleteEvent) {
  reset_tracer(0);
  {
    TraceScope ts(EventKind::kReduce, 1024);
    EXPECT_TRUE(ts.armed());
  }
  EXPECT_EQ(Tracer::instance().events_recorded(), 1u);
  EXPECT_EQ(Tracer::instance().events_dropped(), 0u);
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("\"name\":\"reduce\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  Tracer::instance().disable();
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDrops) {
  reset_tracer(2);
  Tracer& t = Tracer::instance();
  const uint64_t n = kTestCapacity + 4;
  for (uint64_t i = 0; i < n; ++i) t.record(EventKind::kSlice, 1000 * (i + 1), 10, i);
  EXPECT_EQ(t.events_recorded(), n);
  EXPECT_EQ(t.events_dropped(), n - kTestCapacity);  // oldest 4 overwritten

  const std::string json = t.chrome_json();
  // Only the newest kTestCapacity events survive the wrap.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"slice\""), kTestCapacity);
  EXPECT_NE(json.find("\"events_dropped\":" + std::to_string(n - kTestCapacity)),
            std::string::npos);
  // rank 2 renders as pid 3, named worker-2.
  EXPECT_NE(json.find("\"name\":\"worker-2\""), std::string::npos);
  t.disable();
}

TEST(Tracer, ChromeJsonCarriesSchemaBuildAndInstants) {
  reset_tracer(-1);  // coordinator rank
  Tracer& t = Tracer::instance();
  t.instant(EventKind::kLeaseGrant, 1, 0, 4);
  t.record(EventKind::kDeviceUpload, 50, 25, 4096);
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"ltns.trace.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"build\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"coordinator\""), std::string::npos);
  // Instants carry ph "i" + scope "t"; completes carry a dur.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"device\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"lease\""), std::string::npos);
  t.disable();
}

TEST(Tracer, SerializeIngestRoundTripMergesWorkerChunk) {
  // A "worker" process records three events and serializes its buffers...
  reset_tracer(5);
  Tracer& t = Tracer::instance();
  t.record(EventKind::kGemm, 100, 10, 64, 32);
  t.record(EventKind::kPermute, 200, 20, 4096);
  t.instant(EventKind::kCheckpointAppend, 512);
  const std::vector<uint8_t> chunk = t.serialize();
  ASSERT_GT(chunk.size(), 16u);  // magic + version + rank + thread count

  // ...and the "coordinator" ingests the chunk next to its own (empty) set.
  reset_tracer(-1);
  EXPECT_EQ(t.events_recorded(), 0u);
  t.ingest(chunk);
  EXPECT_EQ(t.events_recorded(), 3u);
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"name\":\"worker-5\""), std::string::npos);  // pid 6
  EXPECT_NE(json.find("\"pid\":6"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"permute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"journal_append\""), std::string::npos);
  t.disable();
}

TEST(Tracer, IngestRejectsCorruptChunks) {
  reset_tracer(-1);
  Tracer& t = Tracer::instance();
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0,
                                        0,    0,    0,    0,    0, 0, 0, 0};
  EXPECT_THROW(t.ingest(garbage), std::runtime_error);
  std::vector<uint8_t> truncated = t.serialize();
  truncated.resize(truncated.size() / 2);
  // A truncated header either fails the magic check or the bounds check.
  EXPECT_THROW(t.ingest(truncated), std::runtime_error);
  EXPECT_EQ(t.events_recorded(), 0u);  // nothing partial was kept
  t.disable();
}

TEST(Tracer, EveryEventKindHasNameAndCategory) {
  for (uint16_t k = 0; k < uint16_t(EventKind::kKindCount); ++k) {
    const EventKindInfo& info = event_kind_info(EventKind(k));
    ASSERT_NE(info.name, nullptr);
    ASSERT_NE(info.category, nullptr);
    EXPECT_GT(std::string(info.name).size(), 0u);
    const std::string cat = info.category;
    EXPECT_TRUE(cat == "slice" || cat == "kernel" || cat == "lease" || cat == "device" ||
                cat == "checkpoint" || cat == "wire" || cat == "query")
        << "kind " << k << " has unknown category " << cat;
  }
}

TEST(Metrics, CountersAccumulateAndGaugesOverwrite) {
  MetricsRegistry reg;
  reg.counter("ltns_test_total", 2, {{"kind", "a"}});
  reg.counter("ltns_test_total", 3, {{"kind", "a"}});
  reg.counter("ltns_test_total", 7, {{"kind", "b"}});  // distinct label set
  reg.gauge("ltns_test_gauge", 1.5);
  reg.gauge("ltns_test_gauge", 2.5);  // overwrite, not add
  ASSERT_EQ(reg.metrics().size(), 3u);
  EXPECT_DOUBLE_EQ(reg.metrics()[0].value, 5.0);
  EXPECT_DOUBLE_EQ(reg.metrics()[1].value, 7.0);
  EXPECT_DOUBLE_EQ(reg.metrics()[2].value, 2.5);
}

TEST(Metrics, JsonAndPrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("ltns_widgets_total", 4, {{"kind", "blue"}});
  reg.gauge("ltns_pressure", 0.75);
  reg.observe("ltns_latency_seconds", {1.0, 10.0, 100.0}, 0.5);
  reg.observe("ltns_latency_seconds", {1.0, 10.0, 100.0}, 5.0);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\":\"ltns.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"build\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ltns_widgets_total\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"kind\":\"blue\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":4"), std::string::npos);
  // Histogram buckets are cumulative in the JSON too.
  EXPECT_NE(json.find("\"sum\":5.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE ltns_widgets_total counter"), std::string::npos);
  EXPECT_NE(prom.find("ltns_widgets_total{kind=\"blue\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ltns_pressure gauge"), std::string::npos);
  EXPECT_NE(prom.find("ltns_pressure 0.75"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ltns_latency_seconds histogram"), std::string::npos);
  // 0.5 lands in le=1; 5.0 in le=10; +Inf bucket equals the count.
  EXPECT_NE(prom.find("ltns_latency_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("ltns_latency_seconds_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("ltns_latency_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("ltns_latency_seconds_count 2"), std::string::npos);
}

TEST(Metrics, WriteFilesEmitsJsonAndPromTwin) {
  MetricsRegistry reg;
  reg.counter("ltns_write_test_total", 1);
  const std::string json_path = ::testing::TempDir() + "ltns_obs_metrics_test.json";
  const std::string prom_path = ::testing::TempDir() + "ltns_obs_metrics_test.prom";
  std::string err;
  ASSERT_TRUE(reg.write_files(json_path, &err)) << err;
  for (const std::string& p : {json_path, prom_path}) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    ASSERT_NE(f, nullptr) << p;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0) << p;
    std::fclose(f);
    std::remove(p.c_str());
  }
}

TEST(Metrics, FillRunMetricsCoversEverySubsystem) {
  runtime::ExecutorSnapshot s;
  s.scheduled = 16;
  s.finished = 16;
  s.ema_utilization = 0.8;
  s.gemm = {32, 1.5};
  s.device.bytes_to_device = 4096;
  s.device.gemm_calls = 32;
  runtime::MemoryStats mem;
  mem.main_bytes = 1 << 20;
  dist::RebalanceStats reb;
  reb.leases_issued = 16;
  reb.leases_completed = 16;

  MetricsRegistry reg;
  fill_run_metrics(reg, s, mem, reb, /*tasks_run=*/16, /*reduce_merges=*/15,
                   /*wall_seconds=*/2.0);
  const std::string json = reg.to_json();
  // One stable name per subsystem proves the whole span is wired through.
  for (const char* name :
       {"ltns_tasks_finished_total", "ltns_phase_seconds_total", "ltns_device_bytes_total",
        "ltns_memory_bytes_total", "ltns_leases_completed_total", "ltns_run_wall_seconds",
        "ltns_reduce_merges_total", "ltns_kernel_isa_lanes", "ltns_device_kernel_calls_total"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""), std::string::npos) << name;
  }
  // One name per quantity: kernel time is ltns_phase_seconds_total and
  // kernel calls are ltns_device_kernel_calls_total, never a second series.
  for (const char* gone : {"ltns_kernel_seconds_total", "ltns_kernel_calls_total"})
    EXPECT_EQ(json.find(std::string("\"name\":\"") + gone + "\""), std::string::npos) << gone;
  // The full unified schema: 43 series (7 runtime + 9 phase + 9 device +
  // 7 memory + 9 rebalance + 2 ISA tier). Growing this number is fine;
  // shrinking it or renaming a series is a schema break
  // (docs/observability.md).
  EXPECT_EQ(reg.metrics().size(), 43u);
}

TEST(BuildInfo, ExposesVersionCompilerAndJson) {
  const BuildInfo& b = build_info();
  EXPECT_GT(std::string(b.version).size(), 0u);
  EXPECT_GT(std::string(b.compiler).size(), 0u);
  const std::string json = build_info_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"version\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
}

TEST(WorkerPulse, WireRoundTrip) {
  dist::WorkerPulse p;
  p.ema_utilization = 0.625;
  p.tasks_run = 42;
  p.leases_completed = 7;
  p.device_bytes = 1.5e9;
  p.device_ns = 2.5e8;
  p.wall_seconds = 12.25;

  dist::ByteWriter w;
  dist::put_pulse(w, p);
  dist::ByteReader r(w.buffer());
  const dist::WorkerPulse q = dist::get_pulse(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_DOUBLE_EQ(q.ema_utilization, p.ema_utilization);
  EXPECT_EQ(q.tasks_run, p.tasks_run);
  EXPECT_EQ(q.leases_completed, p.leases_completed);
  EXPECT_DOUBLE_EQ(q.device_bytes, p.device_bytes);
  EXPECT_DOUBLE_EQ(q.device_ns, p.device_ns);
  EXPECT_DOUBLE_EQ(q.wall_seconds, p.wall_seconds);
}

}  // namespace
}  // namespace ltns::obs

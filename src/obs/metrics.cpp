#include "obs/metrics.hpp"

#include <cstdio>
#include <sstream>

#include "device/cpu_probe.hpp"
#include "dist/lease.hpp"
#include "exec/simd_kernels.hpp"
#include "obs/build_info.hpp"

namespace ltns::obs {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// %.17g round-trips doubles; trims "1.0000000000000000e+03"-style noise for
// integral values, which most counters are.
std::string num(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v > -1e15 && v < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* type_name(Metric::Type t) {
  switch (t) {
    case Metric::Type::kCounter:
      return "counter";
    case Metric::Type::kGauge:
      return "gauge";
    case Metric::Type::kHistogram:
      return "histogram";
  }
  return "counter";
}

std::string prom_labels(const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_val = "") {
  if (labels.empty() && !extra_key) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + json_escape(v) + "\"";
  }
  if (extra_key) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + extra_val + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

Metric& MetricsRegistry::upsert(const std::string& name, Metric::Type type, const Labels& labels) {
  for (auto& m : metrics_)
    if (m.name == name && m.labels == labels) return m;
  Metric m;
  m.name = name;
  m.type = type;
  m.labels = labels;
  metrics_.push_back(std::move(m));
  return metrics_.back();
}

void MetricsRegistry::counter(const std::string& name, double value, Labels labels) {
  upsert(name, Metric::Type::kCounter, labels).value += value;
}

void MetricsRegistry::gauge(const std::string& name, double value, Labels labels) {
  upsert(name, Metric::Type::kGauge, labels).value = value;
}

void MetricsRegistry::observe(const std::string& name, const std::vector<double>& bounds,
                              double value, Labels labels) {
  Metric& m = upsert(name, Metric::Type::kHistogram, labels);
  if (m.bounds.empty()) {
    m.bounds = bounds;
    m.bucket_counts.assign(bounds.size(), 0);
  }
  for (size_t i = 0; i < m.bounds.size(); ++i) {
    if (value <= m.bounds[i]) {
      ++m.bucket_counts[i];
      break;
    }
  }
  m.sum += value;
  ++m.count;
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"ltns.metrics.v1\",\"build\":" << build_info_json() << ",\"metrics\":[";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(m.name) << "\",\"type\":\"" << type_name(m.type) << "\"";
    if (!m.labels.empty()) {
      os << ",\"labels\":{";
      bool lf = true;
      for (const auto& [k, v] : m.labels) {
        if (!lf) os << ",";
        lf = false;
        os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
      }
      os << "}";
    }
    if (m.type == Metric::Type::kHistogram) {
      os << ",\"sum\":" << num(m.sum) << ",\"count\":" << m.count << ",\"buckets\":[";
      uint64_t cum = 0;
      for (size_t i = 0; i < m.bounds.size(); ++i) {
        cum += m.bucket_counts[i];
        if (i) os << ",";
        os << "{\"le\":" << num(m.bounds[i]) << ",\"count\":" << cum << "}";
      }
      os << "]";
    } else {
      os << ",\"value\":" << num(m.value);
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  std::string last_name;
  for (const auto& m : metrics_) {
    if (m.name != last_name) {
      os << "# TYPE " << m.name << " " << type_name(m.type) << "\n";
      last_name = m.name;
    }
    if (m.type == Metric::Type::kHistogram) {
      uint64_t cum = 0;
      for (size_t i = 0; i < m.bounds.size(); ++i) {
        cum += m.bucket_counts[i];
        os << m.name << "_bucket" << prom_labels(m.labels, "le", num(m.bounds[i])) << " " << cum
           << "\n";
      }
      os << m.name << "_bucket" << prom_labels(m.labels, "le", "+Inf") << " " << m.count << "\n";
      os << m.name << "_sum" << prom_labels(m.labels) << " " << num(m.sum) << "\n";
      os << m.name << "_count" << prom_labels(m.labels) << " " << m.count << "\n";
    } else {
      os << m.name << prom_labels(m.labels) << " " << num(m.value) << "\n";
    }
  }
  return os.str();
}

bool MetricsRegistry::write_files(const std::string& json_path, std::string* error) const {
  auto write_one = [&](const std::string& path, const std::string& body) {
    std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
      if (error) *error = "cannot open " + tmp;
      return false;
    }
    bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
      if (error) *error = "write failed for " + path;
      std::remove(tmp.c_str());
    }
    return ok;
  };
  if (!write_one(json_path, to_json())) return false;
  std::string prom = json_path;
  if (prom.size() > 5 && prom.compare(prom.size() - 5, 5, ".json") == 0)
    prom.resize(prom.size() - 5);
  prom += ".prom";
  return write_one(prom, to_prometheus());
}

void fill_run_metrics(MetricsRegistry& reg, const runtime::ExecutorSnapshot& s,
                      const runtime::MemoryStats& mem, const dist::RebalanceStats& reb,
                      uint64_t tasks_run, uint64_t reduce_merges, double wall_seconds) {
  // Slice runtime.
  reg.counter("ltns_tasks_scheduled_total", double(s.scheduled));
  reg.counter("ltns_tasks_finished_total", double(s.finished));
  reg.counter("ltns_tasks_stolen_total", double(s.stolen));
  reg.counter("ltns_tasks_cancelled_total", double(s.cancelled));
  reg.counter("ltns_tasks_run_total", double(tasks_run));
  reg.gauge("ltns_worker_utilization_ema", s.ema_utilization);
  reg.gauge("ltns_run_wall_seconds", wall_seconds);

  // Per-phase timers (the paper's permute/GEMM/reduce decomposition).
  reg.counter("ltns_phase_seconds_total", s.permute.seconds, {{"phase", "permute"}});
  reg.counter("ltns_phase_seconds_total", s.gemm.seconds, {{"phase", "gemm"}});
  reg.counter("ltns_phase_seconds_total", s.reduce.seconds, {{"phase", "reduce"}});
  reg.counter("ltns_phase_seconds_total", s.memory.seconds, {{"phase", "memory"}});
  reg.counter("ltns_phase_events_total", double(s.permute.count), {{"phase", "permute"}});
  reg.counter("ltns_phase_events_total", double(s.gemm.count), {{"phase", "gemm"}});
  reg.counter("ltns_phase_events_total", double(s.reduce.count), {{"phase", "reduce"}});
  reg.counter("ltns_phase_events_total", double(s.memory.count), {{"phase", "memory"}});
  reg.counter("ltns_reduce_merges_total", double(reduce_merges));

  // Kernel calls and operand packing (the device/ accounting).
  reg.counter("ltns_device_bytes_total", s.device.bytes_to_device, {{"dir", "to_device"}});
  reg.counter("ltns_device_bytes_total", s.device.bytes_to_host, {{"dir", "to_host"}});
  reg.counter("ltns_device_transfer_ns_total", s.device.ns_to_device, {{"dir", "to_device"}});
  reg.counter("ltns_device_transfer_ns_total", s.device.ns_to_host, {{"dir", "to_host"}});
  reg.counter("ltns_device_transfers_total", double(s.device.uploads), {{"dir", "to_device"}});
  reg.counter("ltns_device_transfers_total", double(s.device.downloads), {{"dir", "to_host"}});
  reg.counter("ltns_device_kernel_calls_total", double(s.device.gemm_calls), {{"kind", "gemm"}});
  reg.counter("ltns_device_kernel_calls_total", double(s.device.permute_calls),
              {{"kind", "permute"}});
  reg.counter("ltns_device_stem_steps_total", double(s.device.stem_steps));

  // Kernel ISA tier (docs/kernels.md): every kernel runs at the runtime
  // probe's active tier, so the label names what ran. Lane count doubles as
  // the roofline's vector-width axis.
  const auto& probe = device::cpu_probe();
  const std::string isa = exec::isa_name(probe.active);
  reg.gauge("ltns_kernel_isa_lanes", double(exec::isa_lanes(probe.active)), {{"isa", isa}});
  reg.gauge("ltns_kernel_isa_forced", probe.forced ? 1.0 : 0.0, {{"isa", isa}});

  // Memory hierarchy traffic.
  reg.counter("ltns_memory_bytes_total", mem.main_bytes, {{"tier", "main"}});
  reg.counter("ltns_memory_bytes_total", mem.scratch_bytes_get, {{"tier", "ldm_get"}});
  reg.counter("ltns_memory_bytes_total", mem.scratch_bytes_put, {{"tier", "ldm_put"}});
  reg.counter("ltns_memory_bytes_total", mem.rma_bytes, {{"tier", "rma"}});
  reg.counter("ltns_ldm_subtasks_total", double(mem.ldm_subtasks));
  reg.gauge("ltns_peak_elems", double(mem.ldm_peak_elems), {{"tier", "ldm"}});
  reg.gauge("ltns_peak_elems", double(mem.host_peak_elems), {{"tier", "host"}});

  // Elastic rebalance (all-zero for in-process / static runs).
  reg.counter("ltns_leases_issued_total", double(reb.leases_issued));
  reg.counter("ltns_leases_completed_total", double(reb.leases_completed));
  reg.counter("ltns_ranges_stolen_total", double(reb.ranges_stolen));
  reg.counter("ltns_ranges_reissued_total", double(reb.ranges_reissued));
  reg.counter("ltns_ranges_requeued_total", double(reb.ranges_requeued));
  reg.counter("ltns_ranges_replayed_total", double(reb.ranges_replayed));
  reg.counter("ltns_late_results_dropped_total", double(reb.late_results_dropped));
  reg.counter("ltns_workers_lost_total", double(reb.workers_lost));
  reg.counter("ltns_straggler_wait_seconds_total", reb.straggler_wait_seconds);
}

void fill_server_metrics(MetricsRegistry& reg, const ServerSample& s) {
  // Queue + admission state.
  reg.gauge("ltns_server_queue_depth", double(s.queued));
  reg.gauge("ltns_server_running_jobs", double(s.running));
  reg.gauge("ltns_server_running_limit", double(s.running_limit));
  reg.gauge("ltns_server_max_queued", double(s.max_queued));
  reg.gauge("ltns_server_workers", double(s.workers));
  reg.gauge("ltns_server_fleet_utilization_ema", s.fleet_utilization_ema);

  // Lifetime job counters.
  reg.counter("ltns_server_jobs_submitted_total", double(s.submitted_total));
  reg.counter("ltns_server_jobs_rejected_total", double(s.rejected_total));
  reg.counter("ltns_server_jobs_cancelled_total", double(s.cancelled_total));
  reg.counter("ltns_server_jobs_completed_total", double(s.completed_total));
  reg.counter("ltns_server_jobs_failed_total", double(s.failed_total));

  // Per-tenant fair-share state.
  for (const auto& t : s.tenants) {
    const Labels labels = {{"tenant", t.tenant}};
    reg.gauge("ltns_tenant_weight", double(t.weight), labels);
    reg.gauge("ltns_tenant_virtual_time", t.virtual_time, labels);
    reg.gauge("ltns_tenant_queued_jobs", double(t.queued), labels);
    reg.gauge("ltns_tenant_running_jobs", double(t.running), labels);
    reg.counter("ltns_tenant_tasks_charged_total", double(t.tasks_charged), labels);
  }
}

void fill_cache_metrics(MetricsRegistry& reg, const CacheSample& s) {
  for (const auto& t : s.tiers) {
    const Labels tier = {{"tier", t.tier}};
    reg.counter("ltns_cache_hits_total", double(t.memory_hits),
                {{"tier", t.tier + "_memory"}});
    reg.counter("ltns_cache_hits_total", double(t.disk_hits), {{"tier", t.tier + "_disk"}});
    reg.counter("ltns_cache_misses_total", double(t.misses), tier);
    reg.counter("ltns_cache_evictions_total", double(t.evictions), tier);
    reg.counter("ltns_cache_insertions_total", double(t.insertions), tier);
    reg.counter("ltns_cache_corrupt_dropped_total", double(t.corrupt_dropped), tier);
    reg.counter("ltns_cache_bytes_total", double(t.disk_bytes_written), tier);
    reg.gauge("ltns_cache_entries", double(t.memory_entries), tier);
    reg.gauge("ltns_cache_memory_bytes", double(t.memory_bytes), tier);
  }
  reg.counter("ltns_planner_invocations_total", double(s.planner_invocations));
  reg.counter("ltns_cache_served_results_total", double(s.served_results));
  reg.counter("ltns_cache_superset_hits_total", double(s.superset_hits));
}

void fill_query_metrics(MetricsRegistry& reg, const QuerySample& s) {
  reg.counter("ltns_query_queries_total", double(s.queries));
  reg.counter("ltns_query_queries_by_kind_total", double(s.amp_queries), {{"kind", "amp"}});
  reg.counter("ltns_query_queries_by_kind_total", double(s.batch_queries), {{"kind", "batch"}});
  reg.counter("ltns_query_queries_by_kind_total", double(s.sample_queries), {{"kind", "sample"}});
  reg.counter("ltns_query_queries_by_kind_total", double(s.expect_queries), {{"kind", "expect"}});
  reg.counter("ltns_query_groups_total", double(s.groups));
  reg.counter("ltns_query_groups_by_shape_total", double(s.closed_groups), {{"shape", "closed"}});
  reg.counter("ltns_query_groups_by_shape_total", double(s.open_groups), {{"shape", "open"}});
  reg.counter("ltns_query_contractions_total", double(s.contractions));
  reg.counter("ltns_query_plans_total", double(s.planner_passes), {{"source", "planner"}});
  reg.counter("ltns_query_plans_total", double(s.plan_cache_hits), {{"source", "cache"}});
  reg.counter("ltns_query_plans_total", double(s.plan_rebuilds), {{"source", "rebuild"}});
  reg.counter("ltns_query_result_reuse_total", double(s.result_cache_hits),
              {{"source", "exact"}});
  reg.counter("ltns_query_result_reuse_total", double(s.superset_hits), {{"source", "superset"}});
  reg.counter("ltns_query_amplitudes_returned_total", double(s.amplitudes_returned));
  reg.counter("ltns_query_samples_drawn_total", double(s.samples_drawn));
  reg.counter("ltns_query_errors_total", double(s.errors));
  reg.gauge("ltns_query_plan_seconds", s.plan_seconds);
  reg.gauge("ltns_query_exec_seconds", s.exec_seconds);
}

}  // namespace ltns::obs

// Bench-side span recorder for the traced run.
//
// Spans are recorded around the benchmark's own calls into the program's
// public functions; nothing inside the program is instrumented. Each span
// has a name, a start and end (seconds since the recorder was created), the
// id of the span that was open when it began, and the id of the run (one
// timed pass) it belongs to. Spans stay in memory until write_json().
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into Recorder::spans(), -1 for a root
  int run = 0;
};

class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  // Opens a span; returns its id (-1 when recording is off).
  int open(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_seconds(), 0, stack_.empty() ? -1 : stack_.back(), run_});
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[size_t(id)].end = now_seconds();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Duration minus the part covered by direct children (children of one
  // parent never overlap: the recorder is single-threaded).
  double self_seconds(int id) const {
    const Span& s = spans_[size_t(id)];
    double covered = 0;
    for (const Span& c : spans_)
      if (c.parent == id) covered += c.end - c.start;
    return (s.end - s.start) - covered;
  }

  // Sum of self times per span name.
  std::map<std::string, double> self_by_name() const {
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self_seconds(int(i));
    return out;
  }

  bool write_json(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                   "\"parent\": %d, \"run\": %d}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent, s.run,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Recorder& r, const std::string& name) : r_(r), id_(r.open(name)) {}
  ~Scope() { r_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& r_;
  int id_;
};

}  // namespace perfbench

// In-memory spans for the traced replay: each layer call the benchmark makes
// is wrapped in a span (name, start, end, parent, operation id); per-layer
// metrics are derived from span self time after the run, and the spans are
// written out as JSON lines when the benchmark ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  // index into spans(), -1 for a root
    int64_t op;
  };

  int Begin(const char* name, int parent, int64_t op) {
    spans_.push_back({name, NowNs(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }
  double DurationMs(int span) const {
    const Span& s = spans_[static_cast<size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  /// Self time in microseconds (duration minus the children's durations),
  /// summed per operation id and span name.
  std::map<int64_t, std::map<std::string, double>> SelfTimesUs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<int64_t, std::map<std::string, double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int64_t self_ns = s.end_ns - s.start_ns - child_ns[i];
      out[s.op][s.name] += static_cast<double>(self_ns) / 1e3;
    }
    return out;
  }

  void WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced pass.
//
// Spans wrap the calls the benchmark makes into hacksim (an iteration, each
// RunScenario call, each layer-driver call). They live in memory until the
// run ends, when WriteChromeTrace dumps them and SelfTimes derives each
// span's self time: its duration minus the part of its interval that its
// children cover (children may overlap when a campaign runs in parallel).
// Nothing here is called on the untraced pass, so end-to-end timings never
// pay for it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // the parent span's index in its Tracer, -1 = root
  int iteration = -1;
};

class Tracer {
 public:
  // Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, int iteration);
  void End(int span);
  // Records an already-timed span (a worker thread's RunScenario call,
  // timed into caller-owned per-index storage during a parallel fan-out).
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           int parent, int iteration);

  // Self time of every span, grouped by span name, in nanoseconds.
  std::map<std::string, std::vector<double>> SelfTimesByName() const;
  // Durations grouped by span name, in nanoseconds.
  std::map<std::string, std::vector<double>> DurationsByName() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int iteration)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, iteration) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

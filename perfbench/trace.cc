#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, int iteration) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, iteration});
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close innermost-first (ScopedSpan is RAII).
  if (!open_.empty() && open_.back() == span) {
    open_.pop_back();
  }
}

void Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int parent, int iteration) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, iteration});
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesByName() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns - covered));
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::DurationsByName() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"iteration\": %d}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.iteration, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// program (and from the timings the program reports back), kept in memory,
// and written out once at the end.  A span has a name, a start and an end
// on the benchmark's steady clock, the index of the span that caused it
// (-1 for a root) and the id of the request it belongs to.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

class Tracer {
 public:
  /// Thread-safe; returns the span's index (the parent handle of its
  /// children).
  int add(std::string name, std::uint64_t request, int parent, Clock::time_point start,
          Clock::time_point end);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Per span name: total duration and total self time (duration minus
  /// the part of its interval its children cover), in ms.
  struct Totals {
    double ms = 0.0;
    double selfMs = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totalsByName() const;

  /// Every span as one JSON object per line, in recording order (times in
  /// ms from the earliest start; "parent" is the 0-based line of the parent
  /// span, -1 for a root).
  void write(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#include "trace.hpp"

#include <algorithm>
#include <utility>

#include "service/json.hpp"

namespace perfbench {

int Tracer::add(std::string name, std::uint64_t request, int parent,
                Clock::time_point start, Clock::time_point end) {
  const std::lock_guard<std::mutex> guard(mutex_);
  spans_.push_back({std::move(name), request, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  return spans_;
}

std::map<std::string, Tracer::Totals> Tracer::totalsByName() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> children(
      all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{};
    Clock::time_point reach = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    Totals& t = totals[s.name];
    t.ms += s.ms();
    t.selfMs += s.ms() - std::chrono::duration<double, std::milli>(covered).count();
    ++t.count;
  }
  return totals;
}

void Tracer::write(std::ostream& out) const {
  using lo::service::Json;
  const std::vector<Span> all = spans();
  Clock::time_point origin = all.empty() ? Clock::time_point{} : all.front().start;
  for (const Span& s : all) origin = std::min(origin, s.start);
  const auto rel = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - origin).count();
  };
  for (const Span& s : all) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("request", s.request);
    j.set("parent", s.parent);
    j.set("start_ms", rel(s.start));
    j.set("end_ms", rel(s.end));
    out << j.dump() << '\n';
  }
}

}  // namespace perfbench

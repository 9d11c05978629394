#include "spans.h"

#include <cstdio>

#include "common/json_util.h"

namespace adya::e2e {

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(
      Record{name, Clock::now(), Clock::time_point(), tracer_->open_, op});
  tracer_->open_ = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  Record& r = tracer_->spans_[static_cast<size_t>(index_)];
  r.end = Clock::now();
  tracer_->open_ = r.parent;
}

std::map<std::string, Tracer::LayerTime> Tracer::Layers() const {
  // Children of one span run one after another on this thread, so the part
  // of the parent they cover is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_s[static_cast<size_t>(r.parent)] += SecondsBetween(r.start, r.end);
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    double duration = SecondsBetween(r.start, r.end);
    LayerTime& t = out[r.name];
    ++t.count;
    t.total_s += duration;
    t.self_s += duration - child_s[i];
  }
  return out;
}

std::string Tracer::ChromeEvents(Clock::time_point epoch) const {
  std::string out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (!out.empty()) out += ",\n";
    double ts_us = SecondsBetween(epoch, r.start) * 1e6;
    double dur_us = SecondsBetween(r.start, r.end) * 1e6;
    out += "{\"name\":\"" + JsonEscape(r.name) +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + JsonInt(thread_) +
           ",\"ts\":" + Num(ts_us) + ",\"dur\":" + Num(dur_us) +
           ",\"args\":{\"op\":" + JsonInt(r.op) + ",\"span\":" + JsonInt(i) +
           ",\"parent\":" + JsonInt(r.parent) + "}}";
  }
  return out;
}

void MergeLayers(const std::map<std::string, Tracer::LayerTime>& from,
                 std::map<std::string, Tracer::LayerTime>* into) {
  for (const auto& [name, t] : from) {
    Tracer::LayerTime& sum = (*into)[name];
    sum.count += t.count;
    sum.total_s += t.total_s;
    sum.self_s += t.self_s;
  }
}

std::string LayersJson(
    const std::map<std::string, Tracer::LayerTime>& layers) {
  JsonObject out;
  for (const auto& [name, t] : layers) {
    out.Raw(name, JsonObject()
                      .Count("count", t.count)
                      .Number("total_s", t.total_s)
                      .Number("self_s", t.self_s)
                      .Finish());
  }
  return out.Finish();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers,
                      Clock::time_point epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e2ebench: cannot write trace %s\n", path.c_str());
    return false;
  }
  std::fputs("[\n", f);
  bool first = true;
  for (const Tracer* tracer : tracers) {
    std::string events = tracer->ChromeEvents(epoch);
    if (events.empty()) continue;
    if (!first) std::fputs(",\n", f);
    std::fputs(events.c_str(), f);
    first = false;
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace adya::e2e

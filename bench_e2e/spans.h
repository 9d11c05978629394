#ifndef ADYA_BENCH_E2E_SPANS_H_
#define ADYA_BENCH_E2E_SPANS_H_

// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer. A Tracer belongs to one thread; spans nest by
// scope, so a span's parent is whatever span was open when it started.
// Spans stay in memory and are written out as Chrome trace-event JSON when
// the run ends. A disabled tracer records nothing and never reads the
// clock.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2e.h"

namespace adya::e2e {

class Tracer {
 public:
  Tracer(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span for the rest of the enclosing scope; a null or disabled
  /// tracer records nothing. `name` must be a string literal (spans keep
  /// the pointer).
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  /// Per-name totals: how many spans, their summed duration, and their
  /// summed self time (duration minus the part covered by child spans).
  struct LayerTime {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, LayerTime> Layers() const;

  /// Chrome trace-event "complete" events (ph "X") for every span, as a
  /// comma-separated list (no brackets) so several tracers can be joined.
  std::string ChromeEvents(Clock::time_point epoch) const;

 private:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int32_t parent;
    uint64_t op;
  };

  const bool enabled_;
  const int thread_;
  std::vector<Record> spans_;
  int32_t open_ = -1;  // innermost open span, -1 at top level
};

/// Merges per-thread layer tables (sums every field).
void MergeLayers(const std::map<std::string, Tracer::LayerTime>& from,
                 std::map<std::string, Tracer::LayerTime>* into);

/// Renders a layer table as {"name":{"count":…,"total_s":…,"self_s":…},…}.
std::string LayersJson(const std::map<std::string, Tracer::LayerTime>& layers);

/// Writes `[events…]` to `path`; returns false (after a note on stderr) when
/// the file cannot be written — the trace is a by-product, not a result.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers,
                      Clock::time_point epoch);

}  // namespace adya::e2e

#endif  // ADYA_BENCH_E2E_SPANS_H_

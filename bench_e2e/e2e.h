#ifndef ADYA_BENCH_E2E_E2E_H_
#define ADYA_BENCH_E2E_E2E_H_

// Shared pieces of the end-to-end benchmark runner (e2ebench): flag
// parsing, clocks, resource probes and the raw-result JSON writer. The
// runner prints one raw JSON object per run; run.py turns it into the
// benchmark's metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace adya::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

/// `--key=value` flags; every value is looked up with a default.
class Flags {
 public:
  Flags(int argc, char** argv);
  std::string Str(const std::string& key, const std::string& def) const;
  double Num(const std::string& key, double def) const;
  int64_t Int(const std::string& key, int64_t def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// User + system CPU seconds of this process (all threads).
double CpuSeconds();
/// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Shortest round-trip decimal rendering of `v` (all its digits).
std::string Num(double v);

/// Builds one JSON object field by field; values are already-rendered JSON.
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string_view json);
  JsonObject& Number(std::string_view key, double v);
  JsonObject& Count(std::string_view key, uint64_t v);
  JsonObject& String(std::string_view key, std::string_view v);
  JsonObject& Numbers(std::string_view key, const std::vector<double>& v);
  JsonObject& Strings(std::string_view key, const std::vector<std::string>& v);
  std::string Finish() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

/// Each workload runner prints its raw result object as the last line of
/// stdout and returns the process exit code.
int RunAudit(const Flags& flags);
int RunServeStream(const Flags& flags);

}  // namespace adya::e2e

#endif  // ADYA_BENCH_E2E_E2E_H_

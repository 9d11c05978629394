// e2ebench: the end-to-end benchmark's runner. One workload per process:
//
//   e2ebench audit  --format=adya|elle-append --txns=N --pool=K ...
//   e2ebench serve  --daemon=PATH
//
// Both take --seed, --seconds, --trace=0|1 and --out-dir (where traces and
// the daemon's port file go). The last stdout line is one raw JSON object
// (samples, counts, layer tables); bench_e2e/run.py, which builds this
// binary and picks each workload's flags, turns it into metrics.

#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json_util.h"
#include "e2e.h"

namespace adya::e2e {

Flags::Flags(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "e2ebench: expected --key=value, got '%s'\n",
                   arg.c_str());
      std::exit(2);
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

std::string Flags::Str(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

double Flags::Num(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "e2ebench: --%s needs a number\n", key.c_str());
    std::exit(2);
  }
  return v;
}

int64_t Flags::Int(const std::string& key, int64_t def) const {
  return static_cast<int64_t>(Num(key, static_cast<double>(def)));
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

std::string Num(double v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc() || v != v) return "0";
  return std::string(buf, ptr);
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  if (body_.size() > 1) body_ += ",";
  body_ += "\"" + JsonEscape(key) + "\":";
  body_ += json;
  return *this;
}

JsonObject& JsonObject::Number(std::string_view key, double v) {
  return Raw(key, e2e::Num(v));
}

JsonObject& JsonObject::Count(std::string_view key, uint64_t v) {
  return Raw(key, JsonInt(v));
}

JsonObject& JsonObject::String(std::string_view key, std::string_view v) {
  return Raw(key, "\"" + JsonEscape(v) + "\"");
}

JsonObject& JsonObject::Numbers(std::string_view key,
                                const std::vector<double>& v) {
  std::string json = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) json += ",";
    json += e2e::Num(v[i]);
  }
  return Raw(key, json + "]");
}

JsonObject& JsonObject::Strings(std::string_view key,
                                const std::vector<std::string>& v) {
  std::string json = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + JsonEscape(v[i]) + "\"";
  }
  return Raw(key, json + "]");
}

}  // namespace adya::e2e

int main(int argc, char** argv) {
  std::string mode = argc > 1 ? argv[1] : "";
  adya::e2e::Flags flags(argc, argv);
  if (mode == "audit") return adya::e2e::RunAudit(flags);
  if (mode == "serve") return adya::e2e::RunServeStream(flags);
  std::fprintf(stderr, "usage: e2ebench audit|serve --key=value...\n");
  return 2;
}

// Offline audit workloads: history text in memory -> LoadHistory -> Checker
// -> CheckAll + Check at every level, the work of `histtool check`.
//
// Set-up builds the text from the seed (a random anomalous history rendered
// in the paper's notation, or an engine-recorded serializable history
// exported as an Elle list-append log) and computes the reference verdicts
// on the generator's in-memory History. Every timed operation must match
// them level by level and phenomenon by phenomenon, and must repeat the
// first operation's witness text byte for byte; a mismatch counts as a
// failed operation, it does not stop the run.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/checker_api.h"
#include "core/conflicts.h"
#include "e2e.h"
#include "engine/database.h"
#include "history/format.h"
#include "history/source.h"
#include "ingest/edn.h"
#include "ingest/elle.h"
#include "obs/stats.h"
#include "spans.h"
#include "workload/workload.h"

namespace adya::e2e {
namespace {

// Set-ups per run; the median is reported.
constexpr int kSetups = 3;

constexpr IsolationLevel kLevels[] = {
    IsolationLevel::kPL1,    IsolationLevel::kPL2,  IsolationLevel::kPLCS,
    IsolationLevel::kPL2Plus, IsolationLevel::kPL299, IsolationLevel::kPLSI,
    IsolationLevel::kPL3};

/// Everything one audit answers.
struct Verdicts {
  std::vector<Violation> all;
  std::vector<CheckReport> levels;
};

/// The comparable form of a verdict set. With `witness_text` every witness
/// description is included byte for byte; without it only which phenomena
/// occurred and which levels hold (what survives re-ingestion, where event
/// ids are renumbered).
std::string Render(const Verdicts& v, bool witness_text) {
  std::string out = "all:";
  for (const Violation& x : v.all) {
    out += StrCat(" ", PhenomenonName(x.phenomenon));
    if (witness_text) out += StrCat("\n  ", x.description, "\n");
  }
  for (const CheckReport& r : v.levels) {
    out += StrCat("\n", IsolationLevelName(r.level), " ",
                  r.satisfied ? "ok" : "violated");
    for (const Violation& x : r.violations) {
      out += StrCat(" ", PhenomenonName(x.phenomenon));
      if (witness_text) out += StrCat("\n  ", x.description, "\n");
    }
  }
  return out;
}

Verdicts Query(const Checker& checker, Tracer* tracer, uint64_t op) {
  Verdicts v;
  {
    Tracer::Span span(tracer, "core.check_all", op);
    v.all = checker.CheckAll();
  }
  Tracer::Span span(tracer, "core.check_levels", op);
  for (IsolationLevel level : kLevels) v.levels.push_back(checker.Check(level));
  return v;
}

struct Input {
  std::string text;
  /// Which phenomena occur and which levels hold, computed on the
  /// generator's in-memory History.
  std::string expected;
  uint64_t events = 0;
  uint64_t txns = 0;
  /// Notation workload under tracing only: the generator's history before
  /// Finalize, for timing Finalize on its own.
  std::optional<History> unfinalized;
};

Input SetupNotation(uint64_t seed, int txns, bool keep_unfinalized) {
  workload::RandomHistoryOptions o;
  o.seed = seed;
  o.num_txns = txns;
  o.num_objects = std::max(2, txns / 2);
  o.ops_per_txn = 5;
  o.abort_prob = 0.15;
  o.random_version_order_prob = 0.3;
  o.finalize = false;
  Input in;
  History h = workload::GenerateRandomHistory(o);
  if (keep_unfinalized) in.unfinalized = h;
  Status finalized = h.Finalize();
  if (!finalized.ok()) {
    std::fprintf(stderr, "e2ebench: generated history invalid: %s\n",
                 finalized.ToString().c_str());
    std::exit(1);
  }
  in.text = FormatHistory(h);
  Checker reference(h);
  in.expected = Render(Query(reference, nullptr, 0), false);
  in.events = h.events().size();
  in.txns = h.Transactions().size();
  return in;
}

Input SetupElle(uint64_t seed, int txns) {
  engine::Database::Options db_options;
  db_options.blocking = false;
  std::unique_ptr<engine::Database> db =
      engine::Database::Create(engine::Scheme::kLocking, db_options);
  workload::WorkloadOptions w;
  w.seed = seed;
  w.num_txns = txns;
  w.num_keys = std::max(8, txns / 12);
  w.ops_per_txn = 5;
  w.max_active = 8;
  w.abort_prob = 0.05;
  w.levels = {IsolationLevel::kPL3};
  w.read_weight = 1;
  w.write_weight = 1;
  w.delete_weight = 0;
  w.pred_read_weight = 0;
  w.pred_update_weight = 0;
  w.max_steps = 200 * txns;
  workload::RunWorkload(*db, w);
  Result<History> h = db->RecordedHistory();
  if (!h.ok()) {
    std::fprintf(stderr, "e2ebench: recorded history: %s\n",
                 h.status().ToString().c_str());
    std::exit(1);
  }
  Result<std::string> text = ingest::ExportElleAppend(*h);
  if (!text.ok()) {
    std::fprintf(stderr, "e2ebench: elle export: %s\n",
                 text.status().ToString().c_str());
    std::exit(1);
  }
  Input in;
  in.text = std::move(*text);
  Checker reference(*h);
  in.expected = Render(Query(reference, nullptr, 0), false);
  in.events = h->events().size();
  in.txns = h->Transactions().size();
  return in;
}

/// One timed operation's products. The history and checker outlive the
/// timed interval so that freeing them stays off the clock; the checker is
/// declared last so it is destroyed before the history it points into.
struct Op {
  std::unique_ptr<LoadedHistory> loaded;
  std::unique_ptr<Checker> checker;
  Verdicts verdicts;
  Status status;
  double wall_s = 0;
  double check_cpu_s = 0;
  double check_wall_s = 0;
};

Op RunOp(const std::string& text, const std::string& format, ThreadPool* pool,
         obs::StatsRegistry* stats, Tracer* tracer, uint64_t id) {
  Op op;
  Clock::time_point start = Clock::now();
  {
    Tracer::Span root(tracer, "audit", id);
    Result<LoadedHistory> loaded = [&] {
      Tracer::Span span(
          tracer, format == "adya" ? "history.load" : "ingest.load", id);
      return LoadHistory(text, format, stats);
    }();
    if (!loaded.ok()) {
      op.status = loaded.status();
      op.wall_s = SecondsSince(start);
      return op;
    }
    op.loaded = std::make_unique<LoadedHistory>(std::move(*loaded));
    CheckerOptions options;
    options.stats = stats;
    double cpu0 = CpuSeconds();
    Clock::time_point check_start = Clock::now();
    {
      Tracer::Span span(tracer, "core.checker_build", id);
      op.checker =
          std::make_unique<Checker>(op.loaded->history, options, pool);
    }
    op.verdicts = Query(*op.checker, tracer, id);
    op.check_wall_s = SecondsSince(check_start);
    op.check_cpu_s = CpuSeconds() - cpu0;
  }
  op.wall_s = SecondsSince(start);
  return op;
}

/// Time of one whole check (build + every query) of `h`, best of two.
double TimeCheck(const History& h, ThreadPool* pool) {
  double best = 0;
  for (int r = 0; r < 2; ++r) {
    Clock::time_point start = Clock::now();
    Checker checker(h, CheckerOptions(), pool);
    Verdicts v = Query(checker, nullptr, 0);
    double s = SecondsSince(start);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

void WriteFile(const std::string& path, const std::string& text) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

double HistogramSeconds(const obs::StatsSnapshot& snap, const char* name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0
                                     : static_cast<double>(it->second.sum) / 1e6;
}

}  // namespace

int RunAudit(const Flags& flags) {
  const std::string format = flags.Str("format", "adya");
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const int txns = static_cast<int>(flags.Int("txns", 100000));
  const double seconds = flags.Num("seconds", 10);
  const bool trace = flags.Int("trace", 0) != 0;
  const int pool_threads = static_cast<int>(std::min<int64_t>(
      flags.Int("pool", 0), std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));
  const std::string out_dir = flags.Str("out-dir", ".");
  if (format != "adya" && format != "elle-append") {
    std::fprintf(stderr, "e2ebench: --format must be adya or elle-append\n");
    return 2;
  }
  ingest::RegisterElleFormats();
  Clock::time_point epoch = Clock::now();

  // Set-up, several times: the reported set-up time is their median. The
  // last input is the one measured.
  std::vector<double> setup_s;
  Input input;
  for (int i = 0; i < kSetups; ++i) {
    Clock::time_point start = Clock::now();
    input = Input();  // free the previous copy before building the next
    input = format == "adya" ? SetupNotation(seed, txns, trace)
                             : SetupElle(seed, txns);
    setup_s.push_back(SecondsSince(start));
  }
  std::fprintf(stderr,
               "e2ebench: %s input: %llu txns, %llu events, %.1f MB text, "
               "set-up %.2fs\n",
               format.c_str(), static_cast<unsigned long long>(input.txns),
               static_cast<unsigned long long>(input.events),
               static_cast<double>(input.text.size()) / 1e6, setup_s.back());

  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 1) pool = std::make_unique<ThreadPool>(pool_threads);

  // The measured loop. Traced runs alternate untraced and traced
  // operations, so the difference between the two is the tracing overhead
  // under the same conditions.
  Tracer tracer(trace, 0);
  obs::StatsRegistry stats;
  std::vector<double> op_s, traced_op_s;
  double check_cpu_s = 0, check_wall_s = 0;
  uint64_t attempted = 0, failed = 0, violations = 0;
  uint64_t ingest_ops = 0, inferred_edges = 0;
  std::vector<std::string> failures;
  auto fail = [&](std::string why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(std::move(why));
  };
  // Witness text is held byte for byte to the first operation's. It cannot
  // be held to the generator's: the notation leaves objects of the default
  // relation undeclared, so the parser numbers them in order of first use,
  // and a cycle search may then report a different, equally valid cycle.
  std::string witness_reference;
  Clock::time_point loop_start = Clock::now();
  while (attempted < 1 || (trace && attempted < 2) ||
         SecondsSince(loop_start) < seconds) {
    const bool traced = trace && attempted % 2 == 1;
    const uint64_t id = attempted + 1;
    Op op = RunOp(input.text, format, pool.get(), traced ? &stats : nullptr,
                  traced ? &tracer : nullptr, id);
    ++attempted;
    std::string why;
    std::string verdicts = op.status.ok() ? Render(op.verdicts, false) : "";
    std::string witnesses = op.status.ok() ? Render(op.verdicts, true) : "";
    if (verdicts == input.expected && witness_reference.empty()) {
      witness_reference = witnesses;
    }
    if (!op.status.ok()) {
      why = op.status.ToString();
    } else if (verdicts != input.expected) {
      why = "verdicts differ from the generator's";
      if (failed == 0) {
        WriteFile(StrCat(out_dir, "/mismatch-expected.txt"), input.expected);
        WriteFile(StrCat(out_dir, "/mismatch-got.txt"), verdicts);
      }
    } else if (witnesses != witness_reference) {
      why = "witness text differs from the first operation's";
    } else if (format != "adya" && !op.verdicts.levels.back().satisfied) {
      why = "serializable history failed PL-3";
    }
    if (!why.empty()) {
      fail(StrCat("op ", id, ": ", why));
      continue;
    }
    (traced ? traced_op_s : op_s).push_back(op.wall_s);
    if (traced) {
      check_cpu_s += op.check_cpu_s;
      check_wall_s += op.check_wall_s;
      violations = op.verdicts.all.size();
      ingest_ops = op.loaded->report.ops;
      inferred_edges = op.loaded->report.inferred_edges;
    }
  }

  // Probes for the layer table, traced runs only and outside every timed
  // operation: Finalize on its own, EDN reading on its own, the same check
  // with and without the pool, and the DSG's edge count.
  JsonObject probe;
  if (trace) {
    if (input.unfinalized.has_value()) {
      Tracer::Span span(&tracer, "probe.finalize", 0);
      obs::StatsRegistry finalize_stats;
      History copy = *input.unfinalized;
      History::FinalizeOptions fo;
      fo.stats = &finalize_stats;
      Status s = copy.Finalize(fo);
      obs::StatsSnapshot snap = finalize_stats.Snapshot();
      probe.Number("finalize_s", HistogramSeconds(snap, "checker.finalize_us"))
          .Number("version_order_s",
                  HistogramSeconds(snap, "checker.version_order_us"));
      if (!s.ok()) fail("finalize probe: " + s.ToString());
    }
    if (format != "adya") {
      Tracer::Span span(&tracer, "probe.edn_read", 0);
      Clock::time_point start = Clock::now();
      uint64_t lines = 0;
      for (std::string_view line : StrSplit(input.text, '\n')) {
        if (StripAsciiWhitespace(line).empty()) continue;
        Result<ingest::EdnValue> v = ingest::ParseEdn(line);
        if (!v.ok()) fail("edn probe: " + v.status().ToString());
        ++lines;
      }
      probe.Number("edn_read_s", SecondsSince(start)).Count("edn_lines", lines);
    }
    Result<LoadedHistory> loaded = LoadHistory(input.text, format);
    if (!loaded.ok()) fail("probe load: " + loaded.status().ToString());
    if (loaded.ok()) {
      {
        Tracer::Span span(&tracer, "probe.pool_speedup", 0);
        ThreadPool probe_pool(static_cast<int>(std::min<long>(
            4, std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)))));
        probe.Number("serial_check_s", TimeCheck(loaded->history, nullptr))
            .Number("pooled_check_s",
                    TimeCheck(loaded->history, &probe_pool))
            .Count("probe_pool_threads",
                   static_cast<uint64_t>(probe_pool.threads()));
      }
      Tracer::Span span(&tracer, "probe.dsg_edges", 0);
      probe.Count("dsg_edges", ComputeDependencies(loaded->history).size());
    }
  }

  JsonObject out;
  out.String("kind", "audit")
      .String("format", format)
      .Count("txns", input.txns)
      .Count("events", input.events)
      .Count("text_bytes", input.text.size())
      .Count("pool_threads", pool ? static_cast<uint64_t>(pool->threads()) : 0)
      .Numbers("setup_s", setup_s)
      .Numbers("op_s", op_s)
      .Count("attempted", attempted)
      .Count("failed", failed)
      .Strings("failures", failures)
      .Number("peak_rss_mb", PeakRssMb());
  if (trace) {
    std::string trace_path =
        StrCat(out_dir, "/trace-audit-", format, "-", seed, ".json");
    WriteChromeTrace(trace_path, {&tracer}, epoch);
    out.Numbers("traced_op_s", traced_op_s)
        .Number("check_cpu_s", check_cpu_s)
        .Number("check_wall_s", check_wall_s)
        .Count("violations", violations)
        .Count("ingest_ops", ingest_ops)
        .Count("inferred_edges", inferred_edges)
        .Raw("layers", LayersJson(tracer.Layers()))
        .Raw("stats", stats.Snapshot().ToJson())
        .Raw("probe", probe.Finish())
        .String("trace_file", trace_path);
  }
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

}  // namespace adya::e2e

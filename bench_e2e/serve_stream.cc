// Streaming workload: the adya_serve daemon in its own process on loopback
// TCP with prefix GC on, and one load process (this one) streaming
// SyntheticLoad batches over several sessions, one thread and one
// connection each.
//
// The load is an open loop: batch i of a session is due at a fixed time
// whatever happened to earlier batches, sent with the pipelined Send/Await
// client calls, and timed from its due time to its VERDICT (a BUSY-resent
// batch keeps its due time). Each session carries write-skew pairs, the
// first of which must come back as the session's one and only witness, a
// G2.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/net.h"
#include "common/str_util.h"
#include "e2e.h"
#include "history/parser.h"
#include "serve/client.h"
#include "serve/session.h"
#include "serve/stream_text.h"
#include "spans.h"

extern char** environ;

namespace adya::e2e {
namespace {

// The workload. The offered rate is half the closed-loop capacity that
// bench/BENCH_serve.json records for 4 sessions (~263k events/s), so the
// daemon is not saturated and latency is not queueing for capacity.
constexpr int kSessions = 4;
constexpr double kOfferedEventsPerS = 131000;  // all sessions together
constexpr int kEventsPerBatch = 64;
constexpr int kObjects = 4096;
// One write-skew pair every this many batches per session; only the first
// is reported (a phenomenon is reported once per session).
constexpr size_t kSkewEvery = 1000;
constexpr int kWorkers = 4;
// Prefix GC every 4096 commits (the GcOptions default), keeping at least
// 8192 events live.
constexpr int kGcWatermark = 4096;
constexpr int kGcMinWindow = 8192;
// Half the daemon's default per-connection pending limit (64).
constexpr size_t kMaxInflight = 32;
// Batches due in the first seconds of a stream are checked but not timed:
// the stream's start holds a one-off stall of up to ~300 ms that would
// otherwise decide the latency tail of a whole run.
constexpr double kWarmupS = 2.0;
constexpr int kSetups = 3;

/// The adya_serve child process. Stop() (also run by the destructor) sends
/// SIGTERM, waits for the graceful drain, and reaps the child.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Spawns `argv` (whose --port-file names `port_file`) and waits until
  /// the port file reports both ports.
  Status Start(const std::vector<std::string>& argv,
               const std::string& port_file) {
    std::remove(port_file.c_str());
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    // The daemon's stdout would interleave with the result line; send it
    // to stderr.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, 2, 1);
    int rc = posix_spawn(&pid_, cargv[0], &actions, nullptr, cargv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return Status::Internal(StrCat("cannot start ", argv[0], ": errno ", rc));
    }
    Clock::time_point start = Clock::now();
    while (SecondsSince(start) < 30) {
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) &&
          std::sscanf(line.c_str(), "tcp=%d http=%d", &tcp_port_,
                      &http_port_) == 2) {
        std::remove(port_file.c_str());
        return Status::OK();
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("adya_serve exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::Internal("adya_serve did not report its ports in 30s");
  }

  int tcp_port() const { return tcp_port_; }
  int http_port() const { return http_port_; }

  /// The daemon's high-water resident set in MB (VmHWM), 0 if unreadable.
  double PeakRssMb() const {
    std::ifstream in(StrCat("/proc/", pid_, "/status"));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// SIGKILL, for a daemon that stopped answering; Stop() still reaps it.
  void Kill() const {
    if (pid_ >= 0) kill(pid_, SIGKILL);
  }

  /// Returns the exit status (-1 if never started or killed).
  int Stop() {
    if (pid_ < 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    Clock::time_point start = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (SecondsSince(start) > 20) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int tcp_port_ = -1;
  int http_port_ = -1;
};

/// GET `path` from the daemon's metrics port; the response body.
Result<std::string> HttpGet(int port, const std::string& path) {
  Result<int> fd = net::DialTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  std::string request = StrCat("GET ", path, " HTTP/1.0\r\n\r\n");
  Status s = net::WriteFull(*fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  while (s.ok()) {
    ssize_t n = ::read(*fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  net::CloseFd(*fd);
  if (!s.ok()) return s;
  size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return Status::Internal("bad HTTP response");
  return std::string(
      StripAsciiWhitespace(std::string_view(response).substr(body + 4)));
}

/// One session's pre-generated stream and what its replies must show.
struct SessionInput {
  std::vector<std::string> batches;
  /// Index of the batch carrying the first write-skew pair (the one G2
  /// witness), and that pair's transaction ids; no witness is expected when
  /// the stream ends before it.
  std::optional<size_t> skew_batch;
  uint64_t skew_t1 = 0, skew_t2 = 0;
};

SessionInput GenerateSession(uint64_t seed, size_t batches) {
  SessionInput in;
  serve::SyntheticLoad gen(seed, kObjects, kEventsPerBatch, kSkewEvery);
  for (size_t i = 0; i < batches; ++i) {
    if (i + 1 == kSkewEvery) {
      in.skew_batch = i;
      in.skew_t1 = gen.txns_generated() + 1;
      in.skew_t2 = in.skew_t1 + 1;
    }
    in.batches.push_back(gen.NextBatch());
  }
  return in;
}

struct SessionResult {
  std::vector<double> latency_s;  // per acknowledged batch
  std::vector<double> lag_s;      // per sent batch: send time - due time
  uint64_t acked = 0, events = 0, failed = 0, busy = 0;
  std::vector<std::string> failures;
  /// Fresh witnesses in arrival order, with the batch whose verdict they
  /// preceded.
  std::vector<std::pair<size_t, serve::WitnessReply>> witnesses;
  Clock::time_point last_ack;
};

void Fail(SessionResult* r, uint64_t batches, std::string why) {
  r->failed += batches;
  if (r->failures.size() < 5) r->failures.push_back(std::move(why));
}

/// Streams `in` open-loop: batch i is due at t0 + i * interval; latency and
/// send lag are recorded from batch `timed_from` on. A send or receive error
/// fails the batches in flight and those not yet sent. At most
/// kMaxInflight batches are outstanding; below the server's pending limit
/// it never answers BUSY (a pipelined client that keeps sending while BUSY
/// replies pile up can leave both ends blocked writing to each other), so
/// a saturated server shows up as send lag instead.
void Stream(serve::Client* client, const SessionInput& in, size_t count,
            size_t timed_from, Clock::time_point t0, double interval_s,
            Tracer* tracer, SessionResult* r) {
  auto due = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(interval_s *
                                                  static_cast<double>(i)));
  };
  Tracer::Span session(tracer, "session", 0);
  std::deque<size_t> inflight;
  size_t next = 0;
  while (next < count || !inflight.empty()) {
    Clock::time_point now = Clock::now();
    if (next < count && now >= due(next) && inflight.size() < kMaxInflight) {
      if (next >= timed_from) {
        r->lag_s.push_back(SecondsBetween(due(next), now));
      }
      Status s = [&] {
        Tracer::Span span(tracer, "client.send", next);
        return client->Send(in.batches[next]);
      }();
      if (!s.ok()) {
        Fail(r, inflight.size() + count - next,
             StrCat("send ", next, ": ", s.ToString()));
        return;
      }
      inflight.push_back(next++);
      continue;
    }
    if (!inflight.empty()) {
      size_t index = inflight.front();
      Result<serve::BatchReply> reply = [&] {
        Tracer::Span span(tracer, "client.await", index);
        return client->Await();
      }();
      Clock::time_point at = Clock::now();
      if (!reply.ok()) {
        Fail(r, inflight.size() + count - next,
             StrCat("await ", index, ": ", reply.status().ToString()));
        return;
      }
      inflight.pop_front();
      if (reply->seq != index) {
        Fail(r, 1, StrCat("verdict seq ", reply->seq, " for batch ", index));
        continue;
      }
      ++r->acked;
      r->events += reply->events;
      if (index >= timed_from) {
        r->latency_s.push_back(SecondsBetween(due(index), at));
      }
      r->last_ack = at;
      for (serve::WitnessReply& w : reply->fresh) {
        r->witnesses.emplace_back(index, std::move(w));
      }
      continue;
    }
    Tracer::Span span(tracer, "client.idle", next);
    std::this_thread::sleep_until(due(next));
  }
}

/// The session must have reported exactly the injected G2, in the verdict
/// of the batch that carried it, naming both transactions of the pair.
void CheckWitnesses(const SessionInput& in, size_t count, SessionResult* r) {
  bool expected = in.skew_batch.has_value() && *in.skew_batch < count;
  bool seen = false;
  for (const auto& [index, w] : r->witnesses) {
    bool match = expected && !seen && index == *in.skew_batch &&
                 w.phenomenon == "G2" &&
                 w.description.find(StrCat("T", in.skew_t1)) != std::string::npos &&
                 w.description.find(StrCat("T", in.skew_t2)) != std::string::npos;
    if (match) {
      seen = true;
    } else {
      Fail(r, 1, StrCat("unexpected witness at batch ", index, ": ",
                        w.phenomenon, " ", w.description));
    }
  }
  if (expected && !seen) {
    Fail(r, 1, StrCat("missing G2 witness for batch ", *in.skew_batch));
  }
}

}  // namespace

int RunServeStream(const Flags& flags) {
  const std::string daemon_path = flags.Str("daemon", "");
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const double seconds = flags.Num("seconds", 10);
  const bool trace = flags.Int("trace", 0) != 0;
  const std::string out_dir = flags.Str("out-dir", ".");
  if (daemon_path.empty()) {
    std::fprintf(stderr, "e2ebench: serve needs --daemon=PATH\n");
    return 2;
  }
  // Each session offers its share of the rate, one batch per interval.
  const double interval_s =
      static_cast<double>(kEventsPerBatch) * kSessions / kOfferedEventsPerS;
  const size_t count = static_cast<size_t>(std::ceil(seconds / interval_s));
  const size_t timed_from =
      std::min(static_cast<size_t>(kWarmupS / interval_s), count / 2);
  Clock::time_point epoch = Clock::now();

  const std::string port_file =
      StrCat(out_dir, "/adya_serve-", ::getpid(), ".port");
  const std::vector<std::string> daemon_argv = {
      daemon_path,
      "--port=0",
      "--http-port=0",
      StrCat("--workers=", kWorkers),
      StrCat("--gc-watermark=", kGcWatermark),
      StrCat("--gc-min-window=", kGcMinWindow),
      StrCat("--port-file=", port_file)};

  // Set-up, several times (the median is reported): generate every
  // session's stream, start the daemon, and open every session. Only the
  // last daemon and its sessions are used.
  std::vector<double> setup_s;
  std::vector<SessionInput> inputs;
  std::unique_ptr<Daemon> daemon;
  std::vector<serve::Client> clients;
  for (int rep = 0; rep < kSetups; ++rep) {
    for (serve::Client& c : clients) (void)c.CloseSession();
    clients.clear();
    daemon.reset();
    inputs.clear();
    Clock::time_point start = Clock::now();
    for (int s = 0; s < kSessions; ++s) {
      inputs.push_back(
          GenerateSession(seed * 1000 + static_cast<uint64_t>(s), count));
    }
    daemon = std::make_unique<Daemon>();
    Status started = daemon->Start(daemon_argv, port_file);
    if (!started.ok()) {
      std::fprintf(stderr, "e2ebench: %s\n", started.ToString().c_str());
      return 1;
    }
    for (int s = 0; s < kSessions; ++s) {
      Result<serve::Client> c =
          serve::Client::ConnectTcp("127.0.0.1", daemon->tcp_port());
      Status ok = c.ok() ? c->Handshake() : c.status();
      if (ok.ok()) ok = c->Open(IsolationLevel::kPL3).status();
      if (!ok.ok()) {
        std::fprintf(stderr, "e2ebench: session %d: %s\n", s,
                     ok.ToString().c_str());
        return 1;
      }
      clients.push_back(std::move(*c));
    }
    setup_s.push_back(SecondsSince(start));
  }

  // The stream: sessions start staggered so their due times interleave.
  std::vector<SessionResult> results(kSessions);
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int s = 0; s < kSessions; ++s) {
    tracers.push_back(std::make_unique<Tracer>(trace, s + 1));
  }
  Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  bool watchdog_fired = false;
  {
    std::atomic<int> running{kSessions};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        size_t i = static_cast<size_t>(s);
        Clock::time_point start =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(interval_s * s / kSessions));
        Stream(&clients[i], inputs[i], count, timed_from, start, interval_s,
               tracers[i].get(), &results[i]);
        CheckWitnesses(inputs[i], count, &results[i]);
        results[i].busy = clients[i].busy_retries();
        Result<std::string> closed = clients[i].CloseSession();
        if (!closed.ok()) {
          Fail(&results[i], 1, "close: " + closed.status().ToString());
        }
        running.fetch_sub(1);
      });
    }
    // A stream that outlives its schedule by a minute is stuck: killing
    // the daemon drops every connection, which fails the outstanding
    // batches and lets the session threads finish.
    Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds + 60));
    while (running.load() > 0 && !watchdog_fired) {
      if (Clock::now() > deadline) {
        daemon->Kill();
        watchdog_fired = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    for (std::thread& t : threads) t.join();
  }

  Result<std::string> statsz = HttpGet(daemon->http_port(), "/statsz");
  double daemon_rss_mb = daemon->PeakRssMb();
  int daemon_exit = daemon->Stop();

  SessionResult all;
  Clock::time_point last_ack = t0;
  for (SessionResult& r : results) {
    all.latency_s.insert(all.latency_s.end(), r.latency_s.begin(),
                         r.latency_s.end());
    all.lag_s.insert(all.lag_s.end(), r.lag_s.begin(), r.lag_s.end());
    all.acked += r.acked;
    all.events += r.events;
    all.failed += r.failed;
    all.busy += r.busy;
    all.witnesses.insert(all.witnesses.end(), r.witnesses.begin(),
                         r.witnesses.end());
    for (std::string& f : r.failures) {
      if (all.failures.size() < 5) all.failures.push_back(std::move(f));
    }
    if (r.acked > 0 && r.last_ack > last_ack) last_ack = r.last_ack;
  }
  if (watchdog_fired) Fail(&all, 0, "stream stalled; adya_serve killed");
  if (!statsz.ok()) {
    Fail(&all, 1, "statsz: " + statsz.status().ToString());
  }
  if (daemon_exit != 0) {
    Fail(&all, 1, StrCat("adya_serve exit status ", daemon_exit));
  }

  // Traced runs replay session 0's stream in process, outside the stream:
  // Session::Apply per batch (parse + certify + GC), and StreamParser::Feed
  // alone with a counting sink. The replayed witnesses must match the
  // daemon's byte for byte.
  JsonObject probe;
  if (trace) {
    const SessionInput& in = inputs[0];
    serve::SessionOptions so;
    so.level = IsolationLevel::kPL3;
    so.check_threads = 1;
    so.gc.enabled = true;
    so.gc.watermark_interval = kGcWatermark;
    so.gc.min_window_events = kGcMinWindow;
    so.gc_from_open = true;
    serve::Session session(1, so, nullptr);
    std::vector<std::string> replayed;
    double apply_s = 0;
    {
      Tracer::Span span(tracers[0].get(), "probe.session_apply", 0);
      for (size_t i = 0; i < count; ++i) {
        Clock::time_point start = Clock::now();
        Result<serve::BatchOutcome> out =
            session.Apply(static_cast<uint32_t>(i), in.batches[i]);
        apply_s += SecondsSince(start);
        if (!out.ok()) {
          Fail(&all, 1, "replay: " + out.status().ToString());
          break;
        }
        for (const Violation& v : out->fresh) replayed.push_back(v.description);
      }
    }
    std::vector<std::string> received;
    for (const auto& [index, w] : results[0].witnesses) {
      received.push_back(w.description);
    }
    if (replayed != received) {
      Fail(&all, 1, "replayed witnesses differ from the daemon's");
    }
    double parse_s = 0;
    uint64_t parsed_events = 0;
    {
      Tracer::Span span(tracers[0].get(), "probe.stream_parse", 0);
      History universe;
      StreamParser parser(&universe);
      auto sink = [&](const Event&) {
        ++parsed_events;
        return Status::OK();
      };
      for (size_t i = 0; i < count; ++i) {
        Clock::time_point start = Clock::now();
        Status s = parser.Feed(in.batches[i], sink);
        parse_s += SecondsSince(start);
        if (!s.ok()) {
          Fail(&all, 1, "stream parse: " + s.ToString());
          break;
        }
      }
    }
    probe.Count("replay_batches", count)
        .Number("session_apply_s", apply_s)
        .Number("stream_parse_s", parse_s)
        .Count("parsed_events", parsed_events)
        .Count("gc_runs", session.gc_runs());
  }

  JsonObject out;
  out.String("kind", "serve")
      .Count("sessions", kSessions)
      .Number("offered_events_per_s", kOfferedEventsPerS)
      .Number("interval_s", interval_s)
      .Count("batches_per_session", count)
      .Count("untimed_batches_per_session", timed_from)
      .Count("events_per_batch", kEventsPerBatch)
      .Numbers("setup_s", setup_s)
      .Numbers("latency_s", all.latency_s)
      .Numbers("lag_s", all.lag_s)
      // Operations: every batch and every session's CLOSE, the /statsz
      // read and the daemon's exit.
      .Count("attempted", kSessions * (count + 1) + 2)
      .Count("failed", all.failed)
      .Strings("failures", all.failures)
      .Count("acked", all.acked)
      .Count("events", all.events)
      .Count("witnesses", all.witnesses.size())
      .Count("busy_retries", all.busy)
      .Number("stream_s", SecondsBetween(t0, last_ack))
      .Number("daemon_peak_rss_mb", daemon_rss_mb)
      .Number("peak_rss_mb", PeakRssMb())
      .Raw("statsz", statsz.ok() ? *statsz : "{}");
  if (trace) {
    std::map<std::string, Tracer::LayerTime> layers;
    std::vector<const Tracer*> views;
    for (const auto& t : tracers) {
      MergeLayers(t->Layers(), &layers);
      views.push_back(t.get());
    }
    std::string trace_path = StrCat(out_dir, "/trace-serve-", seed, ".json");
    WriteChromeTrace(trace_path, views, epoch);
    out.Raw("layers", LayersJson(layers))
        .Raw("probe", probe.Finish())
        .String("trace_file", trace_path);
  }
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

}  // namespace adya::e2e

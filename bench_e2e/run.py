#!/usr/bin/env python3
"""End-to-end benchmark of the adya isolation-level checker.

    python3 bench_e2e/run.py --workload audit_notation --seed 1 \
        --seconds 25 --trace 0

Builds the library sources, the adya_serve daemon and the e2ebench runner
from this checkout (into $CARGO_TARGET_DIR, default .bench_build), runs one
workload, checks every verdict, prints a readable table, and prints as its
last stdout line one JSON object:

    {"correct": …, "attempted": …, "failed": …, "metrics": {…}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (layers a workload does not exercise
read 0). Traces of traced runs go to .bench_out/ as Chrome trace-event JSON.
See README.md in this directory for the workloads and the metric map.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import summary  # noqa: E402

# Each workload's runner mode and flags: the whole input definition. The
# seed, the run length and tracing come from the command line.
WORKLOADS = {
    "audit_notation": ["audit", "--format=adya", "--txns=100000", "--pool=0"],
    "audit_elle_pool4": [
        "audit", "--format=elle-append", "--txns=25000", "--pool=4"],
    "serve_stream": ["serve"],  # its constants are in serve_stream.cc
}

# The runner gets this long beyond --seconds before it is stopped; a run
# must end within 180 s.
RUNNER_GRACE_S = 150


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the runner and daemon; returns their
    paths. Build output goes to stderr so stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("adya sources not found next to bench_e2e/ (no src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        _check_call(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    _check_call(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "e2ebench"), os.path.join(out, "adya_serve")


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _check_call(cmd):
    if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
        fail("build step failed: " + " ".join(cmd))


def run_workload(cmd, seconds):
    """Runs e2ebench in its own process group (the daemon it starts
    joins that group), so a stuck run can be stopped whole."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=seconds + RUNNER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("e2ebench timed out")
    if proc.returncode != 0:
        fail("e2ebench exited with status %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("e2ebench printed no result")
    return json.loads(lines[-1])


def median_or_zero(samples):
    s = summary.summarize(samples)
    return s["median"] if s["median"] is not None else 0.0


# --- end-to-end metrics ------------------------------------------------------

def end_to_end(raw):
    """(metrics, table rows) from an untraced run. Rows carry the names the
    workloads are usually discussed in (audit_s, batch_p99_ms, …)."""
    setup = summary.summarize(raw["setup_s"])
    attempted, failed = raw["attempted"], raw["failed"]
    rows = [("setup_s", setup["median"], "s", "median of set-ups " +
             ", ".join("%.3f" % v for v in raw["setup_s"]))]
    if raw["kind"] == "audit":
        ops = summary.summarize(raw["op_s"])
        audit_s = ops["median"] or 0.0
        # Too few audits for a tail percentile: the slowest one stands in,
        # and is named as such.
        slowest_s = max(raw["op_s"], default=0.0)
        metrics = {
            "latency_p50_ms": audit_s * 1e3,
            "latency_tail_ms": slowest_s * 1e3,
            "events_per_s": raw["events"] / audit_s if audit_s else 0.0,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        rows += [
            ("audit_s", audit_s, "s", summary.describe(ops, 1, "s")),
            ("audit_max_s", slowest_s, "s",
             "slowest of %d audits" % ops["n"]),
            ("events_per_s", metrics["events_per_s"], "events/s",
             "%d events / median audit" % raw["events"]),
            ("peak_rss_mb", raw["peak_rss_mb"], "MB", "benchmark process"),
        ]
    else:
        lat = summary.summarize(raw["latency_s"])
        lag = summary.summarize(raw["lag_s"])
        stream_s = raw["stream_s"]
        # The bounded tail is p99, not the rule's p99.9: p99.9 is the top
        # ~50 batches, which a single stall covers, so it spreads more
        # between runs.
        p99 = summary.percentile(raw["latency_s"], 99.0) or 0.0
        metrics = {
            "latency_p50_ms": (lat["median"] or 0.0) * 1e3,
            "latency_tail_ms": p99 * 1e3,
            "events_per_s": raw["events"] / stream_s if stream_s else 0.0,
            "peak_rss_mb": raw["daemon_peak_rss_mb"],
        }
        rows += [
            ("events_per_s", metrics["events_per_s"], "events/s",
             "acknowledged; offered %g" % raw["offered_events_per_s"]),
            ("batch_p50_ms", metrics["latency_p50_ms"], "ms",
             summary.describe(lat, 1e3, "ms")),
            ("batch_p99_ms", metrics["latency_tail_ms"], "ms",
             "n=%d" % lat["n"]),
            ("batch_p%s_ms" % _pct(lat), (lat["tail"] or 0.0) * 1e3, "ms",
             "due time -> VERDICT"),
            ("send_lag_p%s_ms" % _pct(lag), (lag["tail"] or 0.0) * 1e3, "ms",
             summary.describe(lag, 1e3, "ms")),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
             "adya_serve VmHWM"),
        ]
    metrics["setup_s"] = setup["median"]
    rows.append(("failed_frac", failed / attempted if attempted else 1.0,
                 "ratio", "%d of %d operations" % (failed, attempted)))
    return metrics, rows


def _pct(s):
    return "%g" % s["tail_pct"] if s["tail_pct"] is not None else "NA"


# --- per-layer metrics ---------------------------------------------------------

def per_layer(raw, names):
    """(metrics, span rows, median traced operation) from a traced run.
    Every name in `names` is present; layers the workload does not run
    read 0."""
    m = dict.fromkeys(names, 0.0)
    layers = raw.get("layers", {})

    def mean_total(name):
        t = layers.get(name)
        return t["total_s"] / t["count"] if t and t["count"] else 0.0

    if raw["kind"] == "audit":
        per_op = _audit_layers(raw, mean_total, m)
        root = layers.get("audit", {"self_s": 0.0, "total_s": 0.0})
    else:
        per_op = _serve_layers(raw, m)
        root = layers.get("session", {"self_s": 0.0, "total_s": 0.0})
    m["obs.residual_frac"] = (root["self_s"] / root["total_s"]
                              if root["total_s"] else 0.0)
    rows = []
    for name, t in sorted(layers.items()):
        rows.append((name, t["count"], t["total_s"], t["self_s"]))
    return m, rows, per_op


def _audit_layers(raw, mean_total, m):
    stats = raw.get("stats", {}).get("histograms", {})
    probe = raw.get("probe", {})
    traced = max(1, len(raw.get("traced_op_s", [])))

    def hist_s(name):
        return stats.get(name, {}).get("sum", 0) / 1e6 / traced

    notation = raw["format"] == "adya"
    load = mean_total("history.load" if notation else "ingest.load")
    finalize = probe.get("finalize_s", 0.0)
    version_order = probe.get("version_order_s", 0.0)
    if notation:
        m["history.load_s"] = load
        m["history.parse_s"] = load - finalize - version_order
    else:
        m["ingest.load_s"] = load
    m["history.finalize_s"] = finalize
    m["history.version_order_s"] = version_order
    m["ingest.edn_read_s"] = probe.get("edn_read_s", 0.0)
    m["ingest.ops"] = raw.get("ingest_ops", 0)
    m["ingest.inferred_edges"] = raw.get("inferred_edges", 0)
    m["core.checker_build_s"] = mean_total("core.checker_build")
    m["core.check_s"] = (mean_total("core.check_all") +
                         mean_total("core.check_levels"))
    m["core.conflicts_s"] = hist_s("checker.conflicts_us")
    m["core.dsg_build_s"] = hist_s("checker.dsg_build_us")
    m["core.phenomenon_s"] = hist_s("checker.phenomenon_us")
    m["core.witness_s"] = hist_s("checker.witness_us")
    m["core.violations"] = raw.get("violations", 0)
    m["graph.cycle_search_s"] = hist_s("checker.cycle_search_us")
    m["graph.dsg_edges"] = probe.get("dsg_edges", 0)
    wall = raw.get("check_wall_s", 0.0)
    m["pool.cpu_per_wall"] = raw.get("check_cpu_s", 0.0) / wall if wall else 0.0
    pooled = probe.get("pooled_check_s", 0.0)
    m["pool.check_speedup"] = (probe.get("serial_check_s", 0.0) / pooled
                               if pooled else 0.0)
    untraced = median_or_zero(raw["op_s"])
    traced_med = median_or_zero(raw.get("traced_op_s", []))
    m["obs.trace_overhead_frac"] = ((traced_med - untraced) / untraced
                                    if untraced else 0.0)
    return traced_med


def _serve_layers(raw, m):
    statsz = raw.get("statsz", {})
    hist = statsz.get("histograms", {})
    counters = statsz.get("counters", {})
    probe = raw.get("probe", {})

    def h(name, field):
        return hist.get(name, {}).get(field, 0)

    batches = probe.get("replay_batches", 0)
    m["history.stream_parse_us_per_batch"] = (
        probe.get("stream_parse_s", 0.0) / batches * 1e6 if batches else 0.0)
    m["serve.session_apply_us_per_batch"] = (
        probe.get("session_apply_s", 0.0) / batches * 1e6 if batches else 0.0)
    commits = h("checker.delta_edges", "count")
    m["core.delta_edges_per_commit"] = (
        h("checker.delta_edges", "sum") / commits if commits else 0.0)
    m["core.gc_runs"] = counters.get("checker.gc_runs", 0)
    m["core.gc_pause_p99_ms"] = h("checker.gc_pause_us", "p99") / 1e3
    gc = h("checker.gc_live_window", "count")
    m["core.gc_live_window_events"] = (
        h("checker.gc_live_window", "sum") / gc if gc else 0.0)
    m["serve.certify_p50_ms"] = h("serve.certify_us", "p50") / 1e3
    m["serve.certify_p99_ms"] = h("serve.certify_us", "p99") / 1e3
    m["serve.reply_p50_ms"] = h("serve.reply_us", "p50") / 1e3
    m["serve.queue_depth_max"] = h("serve.queue_depth", "max")
    rx = counters.get("serve.rx_batches", 0)
    m["serve.busy_per_batch"] = (
        counters.get("serve.busy_replies", 0) / rx if rx else 0.0)
    lag = summary.summarize(raw["lag_s"])
    m["client.send_lag_tail_ms"] = (lag["tail"] or 0.0) * 1e3
    return None


# --- output --------------------------------------------------------------------

def print_rows(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print("  %-34s %14.6g %-9s %s" % (name, value, unit, note))


def print_layers(rows, per_op):
    print("layer spans (benchmark-side, traced run):")
    print("  %-22s %6s %12s %12s %8s" % ("span", "count", "total_s", "self_s",
                                         "share"))
    root_total = sum(r[2] for r in rows if r[0] in ("audit", "session"))
    for name, count, total, self_s in rows:
        share = ("%7.1f%%" % (100.0 * self_s / root_total)
                 if root_total and not name.startswith("probe.") else "")
        label = name + (" (residual)" if name in ("audit", "session") else "")
        print("  %-22s %6d %12.6f %12.6f %8s" % (label, count, total, self_s,
                                                 share))
    if per_op:
        print("  median traced operation: %.6f s" % per_op)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    runner, daemon = build(build_dir())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    mode = WORKLOADS[args.workload][0]
    cmd = [runner] + WORKLOADS[args.workload] + [
        "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace, "--out-dir=" + out_dir]
    if mode == "serve":
        cmd.append("--daemon=" + daemon)
    raw = run_workload(cmd, args.seconds)

    print("workload %s, seed %d, %s run" %
          (args.workload, args.seed, "traced" if args.trace else "untraced"))
    for failure in raw.get("failures", []):
        print("  FAILURE: " + failure)
    if args.trace:
        values, layer_rows, per_op = per_layer(
            raw, [m["name"] for m in spec["per_layer"]])
        print_layers(layer_rows, per_op)
        print("  trace: " + os.path.relpath(raw.get("trace_file", ""), ROOT))
        wanted = spec["per_layer"]
    else:
        values, rows = end_to_end(raw)
        print_rows("end-to-end:", rows)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("metrics not computed: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    if args.trace:
        print_rows("per-layer:", [(n, v["value"], v["unit"], "")
                                  for n, v in metrics.items()])
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

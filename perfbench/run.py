#!/usr/bin/env python3
"""satlib benchmark: one command for every workload (see README.md here).

    python3 perfbench/run.py --workload dense-4k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a satlib checkout. The first call builds the driver
and satd from source into $CARGO_TARGET_DIR (default .bench_build). Every
output is checked; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics from a traced run. The exit code
is nonzero when any output was wrong, any request failed, or the run could
not be made.
"""
import argparse
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("dense-4k", "satd-mixed", "tiled-frames")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170
# tiled-frames set-up is the first frame of a fresh driver process; setup_s
# is the median of this many.
COLD_STARTS = 7

# Each workload's tail percentile: the highest one with at least ten
# samples beyond it in a run (>= 100 calls or frames; >= 1000 requests).
TAIL_Q = {"dense-4k": 0.90, "tiled-frames": 0.90, "satd-mixed": 0.99}

PER_LAYER_UNITS = {
    "core.batch_into_ms_p50": "ms",
    "core.tiled_ms_p50": "ms",
    "host.floor_ratio": "ratio",
    "host.computed_gbps": "GB/s",
    "host.lookback.fastpath_share": "ratio",
    "host.lookback.flag_wait_us_per_call": "us",
    "host.lookback.steals_per_call": "count",
    "host.lookback.pipeline_overlap_pct": "%",
    "sat.storage.bytes_ratio": "ratio",
    "sat.storage.overflow_tiles": "count",
    "sat.query_ns": "ns",
    "satd.client.encode_us_p50": "us",
    "satd.client.send_us_p50": "us",
    "satd.client.decode_us_p50": "us",
    "satd.request_us_p50": "us",
    "satd.request_us_p99": "us",
    "satd.batch_size_mean": "count",
    "satd.queue_depth_p99": "count",
    "satd.rejected_share": "ratio",
    "satd.overhead_ratio": "ratio",
    "floor.memcpy_gbps": "GB/s",
    "floor.loopback_gbps": "GB/s",
    "bench.steal_pct": "%",
    "bench.gen_late_ms_p99": "ms",
    "obs.trace_overhead_pct": "%",
}


class BenchError(Exception):
    pass


# ---- statistics -----------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile. Returns (value, sample count); failed
    samples enter as +inf so a refused request misses every limit."""
    if not values:
        raise BenchError("percentile of an empty sample")
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1], len(s)


def hist_diff(after, before):
    """Bucket-wise difference of two /metrics histogram snapshots."""
    counts = {}
    for lo, hi, c in after.get("buckets", []):
        counts[(lo, hi)] = counts.get((lo, hi), 0) + c
    for lo, hi, c in (before or {}).get("buckets", []):
        counts[(lo, hi)] = counts.get((lo, hi), 0) - c
    total = sum(counts.values())
    return {
        "buckets": sorted((lo, hi, c) for (lo, hi), c in counts.items() if c > 0),
        "count": total,
        "sum": after.get("sum", 0) - (before or {}).get("sum", 0),
    }


def hist_percentile(h, q):
    """Percentile of a log2-bucket histogram, interpolated linearly inside
    the bucket that holds the rank (bucket resolution, not exact)."""
    if h["count"] <= 0:
        return 0.0
    rank = q * h["count"]
    seen = 0
    for lo, hi, c in h["buckets"]:
        if seen + c >= rank:
            return lo + (hi + 1 - lo) * (rank - seen) / c
        seen += c
    return float(h["buckets"][-1][1])


# ---- build and environment ------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the driver and satd. Returns paths."""
    if not (ROOT / "src" / "core" / "api.hpp").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no satlib sources under {ROOT}; run from a checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "satd", "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    driver = out / "perfbench_driver"
    satd = out / "satlib" / "tools" / "satd" / "satd"
    for p in (driver, satd):
        if not p.is_file():
            raise BenchError(f"build produced no {p}")
    return driver, satd


def read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def fingerprint():
    cpuinfo = read("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    flags = re.search(r"^flags\s*:\s*(.*)$", cpuinfo, re.M)
    flags = set(flags.group(1).split()) if flags else set()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if kind in ("Data", "Unified"):
            caches[f"L{level}"] = read(idx / "size")
    cache = build_dir() / "CMakeCache.txt"
    cxx = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", read(cache), re.M)
    compiler = "unknown"
    if cxx:
        try:
            compiler = subprocess.run([cxx.group(1), "--version"], capture_output=True,
                                      text=True, timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    mem = re.search(r"^MemTotal:\s*(\d+)", read("/proc/meminfo"), re.M)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max") or " ".join(
            read(f"/sys/fs/cgroup/cpu/cpu.cfs_{k}_us", "?") for k in ("quota", "period")),
        "cpu_model": model.group(1) if model else platform.processor(),
        "isa": sorted(flags & {"sse2", "avx", "avx2", "fma", "avx512f",
                               "avx512vl", "avx512bw", "avx512dq"}),
        "compiler": compiler,
        "caches": caches,
        "mem_total_mib": int(mem.group(1)) // 1024 if mem else None,
        "kernel": platform.release(),
    }


def size_bytes(text):
    m = re.match(r"(\d+)\s*([KMG]?)", text or "")
    if not m:
        return 0
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]


# ---- running the driver ---------------------------------------------------

def run_group(cmd):
    """Runs `cmd` in its own process group so that, on a timeout, the
    driver and the satd it started are killed and waited for together.
    Returns (stdout, stderr, exit code)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=DRIVER_TIMEOUT_S)
        return out, err, p.returncode
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        for _ in range(100):
            try:
                os.killpg(p.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        raise BenchError(f"{' '.join(cmd[1:3])}: driver exceeded {DRIVER_TIMEOUT_S} s")


def run_pass(driver, satd, workload, seed, seconds, trace_out=None, corrupt=False,
             cold_start=False):
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--satd", str(satd), "--work-dir", str(work)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if corrupt:
        cmd.append("--corrupt-one")
    if cold_start:
        cmd.append("--cold-start")
    out, err, code = run_group(cmd)
    raw = [ln for ln in out.splitlines() if ln.startswith("RAW ")]
    if code != 0 or not raw:
        raise BenchError(f"{workload}: driver failed ({code}): {err.strip()[-2000:]}")
    return json.loads(raw[-1][4:])


def failures(raw):
    return raw["wrong"] + raw["errors"] + raw["overloaded"] + raw["missing"]


def throughput(raw):
    """Verified Melem/s of one pass."""
    return raw["elements"] / raw["rate_window_s"] / 1e6


def end_to_end(raw):
    """End-to-end metrics of one untraced pass: name -> (value, unit, n)."""
    w = raw["workload"]
    # Failed requests count as +inf latency: they miss every limit.
    lat = raw["latency_ms"] + [math.inf] * failures(raw)
    p50, n = percentile(lat, 0.5)
    tail, _ = percentile(lat, TAIL_Q[w])
    if not math.isfinite(tail) or raw["rate_window_s"] <= 0:
        raise BenchError(f"{w}: too many failed samples for a tail")
    setup = raw["setup_s"]
    rss = raw["samples"]["peak_rss_kib"]
    return {
        "throughput_melem_s": (throughput(raw), "Melem/s", n),
        "latency_p50_ms": (p50, "ms", n),
        "latency_tail_ms": (tail, "ms", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mib": (statistics.median(rss) / 1024.0, "MiB", len(rss)),
    }


def med(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer(raws, selected, untraced):
    """Per-layer metrics from the traced passes (one per workload) plus the
    untraced pass of the selected workload."""
    out = {}
    d, t, s = raws["dense-4k"], raws["tiled-frames"], raws["satd-mixed"]
    dv, tv, sv = d["values"], t["values"], s["values"]
    core = med(d["samples"]["core_ms"])
    out["core.batch_into_ms_p50"] = core
    out["host.floor_ratio"] = core / (1e3 * dv["floor.memcpy_s"])
    out["host.computed_gbps"] = 2 * 4 * dv["elements_per_call"] / (core / 1e3) / 1e9
    out["host.lookback.fastpath_share"] = (
        dv["host.lookback.fastpath_tiles"] / max(1.0, dv["host.lookback.tiles_retired"]))
    out["host.lookback.flag_wait_us_per_call"] = (
        dv["host.lookback.flag_wait_us_sum"] / max(1.0, dv["calls"]))
    out["host.lookback.steals_per_call"] = dv["host.lookback.steals"] / max(1.0, dv["calls"])
    out["core.tiled_ms_p50"] = med(t["samples"]["core_ms"])
    out["sat.storage.bytes_ratio"] = (
        tv["host.storage.residual_bytes"] / max(1.0, tv["host.storage.dense_bytes"]))
    out["sat.storage.overflow_tiles"] = tv["host.storage.overflow_tiles"] / max(1.0, tv["calls"])
    out["sat.query_ns"] = med(t["samples"]["query_ns"])
    ss = s["samples"]
    out["satd.client.encode_us_p50"] = med(ss["encode_us"])
    out["satd.client.send_us_p50"] = med(ss["send_us"])
    out["satd.client.decode_us_p50"] = med(ss["decode_us"])
    m = s["satd_metrics"] or {}
    before, mid, after = m.get("before") or {}, m.get("after_open") or {}, m.get("after_closed") or {}

    def hist(snap, name):
        return (snap.get("histograms") or {}).get(name, {})

    def counter(snap, name):
        return (snap.get("counters") or {}).get(name, 0)

    req = hist_diff(hist(mid, "satd.request_us"), hist(before, "satd.request_us"))
    out["satd.request_us_p50"] = hist_percentile(req, 0.50)
    out["satd.request_us_p99"] = hist_percentile(req, 0.99)
    batch = hist_diff(hist(after, "satd.batch_size"), hist(before, "satd.batch_size"))
    out["satd.batch_size_mean"] = batch["sum"] / batch["count"] if batch["count"] else 0.0
    out["satd.queue_depth_p99"] = hist_percentile(
        hist_diff(hist(after, "satd.queue_depth"), hist(before, "satd.queue_depth")), 0.99)
    requests = counter(after, "satd.requests_total") - counter(before, "satd.requests_total")
    rejected = (counter(after, "satd.rejected_overload_total")
                - counter(before, "satd.rejected_overload_total"))
    out["satd.rejected_share"] = rejected / requests if requests else 0.0
    out["host.lookback.pipeline_overlap_pct"] = (after.get("gauges") or {}).get(
        "host.lookback.pipeline_overlap_pct", 0.0)
    floors = [1e3 * (sv[f"satd.floor.echo_s.{int(n)}"] + sv[f"satd.floor.direct_s.{int(n)}"])
              for n in ss["request_n"]]
    lat50 = med(s["latency_ms"])
    out["satd.overhead_ratio"] = lat50 / med(floors) if floors else 0.0
    sel = raws[selected]["values"]
    out["floor.memcpy_gbps"] = 2 * sel["floor.memcpy_bytes"] / sel["floor.memcpy_s"] / 1e9
    out["floor.loopback_gbps"] = 2 * sel["floor.loopback_bytes"] / sel["floor.loopback_s"] / 1e9
    out["bench.steal_pct"] = untraced["steal_pct"]
    out["bench.gen_late_ms_p99"] = percentile(ss["gen_late_ms"], 0.99)[0] if ss["gen_late_ms"] else 0.0
    out["obs.trace_overhead_pct"] = 100.0 * (1.0 - throughput(raws[selected])
                                              / throughput(untraced))
    return out


def self_times(trace_paths):
    """Self time per benchmark-side span name: a span's duration minus the
    part of it its child spans cover. Library spans are listed by total."""
    spans, lib = {}, {}
    for f, path in enumerate(trace_paths):
        opened = {}
        for e in json.loads(Path(path).read_text())["traceEvents"]:
            if e.get("cat") != "bench":
                if e.get("ph") == "X":
                    acc = lib.setdefault(e["name"], [0.0, 0])
                    acc[0] += e.get("dur", 0.0)
                    acc[1] += 1
                continue
            args = e.get("args") or {}
            if e["ph"] == "X":
                spans[(f, args["span"])] = (e["name"], e["ts"], e["ts"] + e["dur"],
                                            (f, args.get("parent", 0)))
            elif e["ph"] == "b":
                opened[(e["id"], e["name"])] = (args["span"], e["ts"])
            elif e["ph"] == "e":
                sid, ts = opened.pop((e["id"], e["name"]), (None, None))
                if sid is not None:
                    spans[(f, sid)] = (e["name"], ts, e["ts"], (f, 0))
    children = {}
    for _, t0, t1, parent in spans.values():
        if parent[1]:
            children.setdefault(parent, []).append((t0, t1))
    table = {}
    for sid, (name, t0, t1, _) in spans.items():
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        row = table.setdefault(name, [0.0, 0.0, 0])
        row[0] += t1 - t0
        row[1] += (t1 - t0) - covered
        row[2] += 1
    return table, lib


# ---- commands ---------------------------------------------------------------

def print_table(title, rows):
    print(title)
    for name, (value, unit, n) in rows.items():
        count = f"n={n}" if n is not None else ""
        print(f"  {name:<40} {value:>14.6g} {unit:<8} {count}")


def run_benchmark(args):
    driver, satd = build()
    fp = fingerprint()
    llc = max((size_bytes(v) for v in fp["caches"].values()), default=0)
    untraced = run_pass(driver, satd, args.workload, args.seed, args.seconds,
                        corrupt=args.corrupt_one)
    if args.workload == "tiled-frames":
        cold = [run_pass(driver, satd, args.workload, args.seed, 0, cold_start=True)
                for _ in range(COLD_STARTS)]
        untraced["setup_s"] = [r["setup_s"][0] for r in cold]
        for key in ("attempted", "wrong"):
            untraced[key] += sum(r[key] for r in cold)
    raws = {args.workload: untraced}
    traces = []
    if args.trace:
        out = build_dir() / "traces"
        out.mkdir(parents=True, exist_ok=True)
        for w in (args.workload,) + tuple(x for x in WORKLOADS if x != args.workload):
            path = out / f"{w}-seed{args.seed}.json"
            raws[w] = run_pass(driver, satd, w, args.seed, args.seconds, trace_out=path)
            traces.append(path)

    attempted = sum(r["attempted"] for r in raws.values())
    failed = sum(failures(r) for r in raws.values())
    wrong = sum(r["wrong"] for r in raws.values())
    e2e = end_to_end(untraced)
    v = untraced["values"]
    fp["workload_array_bytes"] = int(v.get("array_bytes", 0))
    fp["llc_bytes"] = llc
    fp["array_over_llc"] = round(v.get("array_bytes", 0) / llc, 3) if llc else None
    fp["floor_memcpy_gbps"] = 2 * v["floor.memcpy_bytes"] / v["floor.memcpy_s"] / 1e9
    fp["floor_loopback_gbps"] = 2 * v["floor.loopback_bytes"] / v["floor.loopback_s"] / 1e9
    fp["steal_pct"] = untraced["steal_pct"]
    print(f"fingerprint {json.dumps(fp, sort_keys=True)}")
    rows = dict(e2e)
    rows["failed_frac"] = (failures(untraced) / max(1, untraced["attempted"]), "ratio",
                           untraced["attempted"])
    tail_name = f"p{round(TAIL_Q[args.workload] * 100)}"
    print_table(f"{args.workload} seed={args.seed} seconds={args.seconds} "
                f"(latency_tail_ms is the {tail_name})", rows)

    if args.trace:
        layers = per_layer(raws, args.workload, untraced)
        print_table("per-layer (traced run)",
                    {k: (val, PER_LAYER_UNITS[k], None) for k, val in layers.items()})
        for path in traces:
            table, lib = self_times([path])
            print(f"self time per layer, {path.stem}")
            for name, (total, self_us, n) in sorted(table.items()):
                print(f"  {name:<24} total {total / 1e3:12.3f} ms  "
                      f"self {self_us / 1e3:12.3f} ms  n={n}")
            for name, (total, n) in sorted(lib.items()):
                print(f"  {name:<24} total {total / 1e3:12.3f} ms  (library span) n={n}")
        print("chrome traces: " + " ".join(str(p) for p in traces))
        metrics = {k: {"value": val, "unit": PER_LAYER_UNITS[k]} for k, val in layers.items()}
    else:
        metrics = {k: {"value": val, "unit": unit} for k, (val, unit, _) in e2e.items()}

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"fingerprint": fp, "metrics": metrics,
                    "samples": {k: n for k, (_, _, n) in rows.items()}}, indent=1))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_test():
    """Driver self-tests, statistics checks, and a corrupted output turned
    into a counted failure and a nonzero exit."""
    ok = True

    def check(cond, what):
        nonlocal ok
        print(f"selftest {'ok  ' if cond else 'FAIL'}: {what}")
        ok &= bool(cond)

    check(percentile([3, 1, 2], 0.5) == (2, 3), "percentile reports value and sample count")
    check(percentile(list(range(1, 101)), 0.9) == (90, 100), "nearest-rank p90 of 1..100")
    check(percentile([1.0] * 98 + [math.inf] * 2, 0.99)[0] == math.inf,
          "failed samples count as misses in the tail")
    h = {"buckets": [[0, 0, 0], [1, 1, 10], [2, 3, 10]], "count": 20, "sum": 35}
    check(hist_percentile(h, 0.5) == 2.0 and hist_percentile(h, 1.0) == 4.0,
          "histogram percentile interpolates inside the bucket")
    driver, satd = build()
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    out, _, code = run_group([str(driver), "--selftest", "--work-dir", str(work)])
    print(out, end="")
    check(code == 0, "driver self-tests")
    for w in WORKLOADS:
        raw = run_pass(driver, satd, w, 1, 1, corrupt=True)
        frac = failures(raw) / raw["attempted"]
        check(raw["wrong"] == 1 and frac > 0,
              f"{w}: one corrupted output is counted (failed_frac={frac:.4g})")
    cold = run_pass(driver, satd, "tiled-frames", 1, 0, cold_start=True)
    check(len(cold["setup_s"]) == 1 and cold["attempted"] == 1 and failures(cold) == 0,
          "tiled-frames cold start: one checked first frame, one set-up sample")
    q = subprocess.run([sys.executable, __file__, "--workload", "tiled-frames", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--corrupt-one"],
                       capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S + 10)
    last = json.loads(q.stdout.strip().splitlines()[-1])
    check(q.returncode != 0 and last["correct"] is False and last["failed"] == 1,
          "a corrupted output turns into correct=false and a nonzero exit")
    print(f"selftest: {'all passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--corrupt-one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return run_benchmark(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the repository's release binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-digests

Run from the repository root. The first run builds the release binaries
and the tracer into $CARGO_TARGET_DIR (default `.bench_build`); state and
result records go under `.bench_work/`.

`--trace 0` runs the workload's binary repeatedly for about S seconds
and reports the end-to-end metrics (medians over repetitions). `--trace
1` replays the workload in-process through the tracer twice, with the
span recorder off and on, and reports the per-layer metrics and the
tracing overhead. Both check the program's outputs: against the digests
pinned in perfbench/digests.json for seeds 0-15, and for every seed by
the checks that need no pin. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import spans, stats, workloads  # noqa: E402

WORK_DIR = ".bench_work"
# Pause between set-up probes run alongside the repetitions.
PROBE_PAUSE_S = 0.1


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, target):
    """Builds the release binaries and the tracer (a no-op when fresh)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "csa-experiments", "-p", "csa-monitor", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "tracer", "Cargo.toml")],
    ]
    for argv in steps:
        res = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr)
        if res.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(argv))


def source_digest(root):
    """Digest of the sources the binaries are built from: identifies the
    code of a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "src"):
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def commit_of(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "source:" + source_digest(root)


def steal_s():
    """CPU time the hypervisor has taken from this machine's CPUs since
    boot (the `steal` column of /proc/stat), or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def compare(got, want):
    """True when every pinned digest matches (nothing pinned: True)."""
    if want is None:
        return True
    return all(got.get(k) == v for k, v in want.items())


def measure(wl, ctx, seconds, digests):
    """Untraced: set-up probes (before the repetitions, or alongside them
    on the other core) and repetitions until `seconds` is used."""
    wl.prepare(ctx)
    header = workloads.artifact_header(ctx)
    start = time.perf_counter()
    setups = []
    stop = threading.Event()

    def probe_until_stopped():
        while not stop.is_set():
            setups.append(wl.setup_once(ctx))
            stop.wait(PROBE_PAUSE_S)

    prober = threading.Thread(target=probe_until_stopped)
    if wl.probe_alongside:
        prober.start()
    else:
        setups += [wl.setup_once(ctx) for _ in range(wl.setup_reps)]
    reps = []
    try:
        while True:
            rep = wl.rep(ctx)
            reps.append(rep)
            log("  rep %d: wall %.3fs %s %s rss %.1fMB failed %d" % (
                len(reps), rep.wall_s, wl.throughput_name, rep.throughput, rep.rss_mb,
                rep.failed))
            elapsed = time.perf_counter() - start
            if elapsed + rep.wall_s > seconds:
                break
    finally:
        stop.set()
        if prober.is_alive():
            prober.join()
    while len(setups) < wl.setup_reps:
        setups.append(wl.setup_once(ctx))
    if any(s is None for s in setups):
        raise RuntimeError("%s: set-up probe failed" % wl.name)
    pinned = wl.pinned(digests, ctx)
    correct = all(compare(r.digests, pinned) for r in reps)
    # Outputs must also repeat exactly across repetitions.
    correct = correct and all(r.digests == reps[0].digests for r in reps)
    if "setup_s" in reps[0].extra:
        setups = [r.extra["setup_s"] for r in reps if r.extra["setup_s"] is not None]
    setup_med = stats.median(setups) if setups else None
    attempted = sum(r.units for r in reps)
    failed = sum(r.failed for r in reps)
    thr = [r.throughput for r in reps if r.throughput]
    rss = [r.rss_mb for r in reps if r.rss_mb]
    figures = {
        "setup_s": (setup_med, "s", len(setups)),
        "throughput_per_s": (stats.median(thr) if thr else None, "1/s", len(thr)),
        "peak_rss_mb": (stats.median(rss) if rss else None, "MB", len(rss)),
    }
    named = {wl.throughput_name: figures["throughput_per_s"]}
    if wl.name == "monitor-mixed":
        wall_caps = [r.extra["capacity_wall_rps"] for r in reps if r.extra["capacity_wall_rps"]]
        named["capacity_wall_rps"] = (
            stats.median(wall_caps) if wall_caps else None, "1/s", len(wall_caps))
        named.update(monitor_latency(reps))
    if wl.name.startswith("census"):
        named["instances_per_s"] = figures["throughput_per_s"]
    named["fail_frac"] = (failed / attempted if attempted else 1.0, "ratio", len(reps))
    record = {
        "header": header,
        "reps": len(reps),
        "rep_walls_s": [r.wall_s for r in reps],
        "digests": reps[0].digests,
        "pinned": pinned,
    }
    return correct and failed == 0, attempted, failed, figures, named, record


def monitor_latency(reps):
    """Open-loop latency from due time, pooled over repetitions."""
    lat, late = [], []
    for r in reps:
        lat += [v * 1e3 for v in stats.due_latencies(r.extra["due"], r.extra["done"]).values()]
        late += [v * 1e3 for v in stats.lateness(r.extra["due"], r.extra["sent"]).values()]
    out = {}
    if lat:
        out["latency_p50_ms"] = (stats.percentile(sorted(lat), 50), "ms", len(lat))
        p, v, n = stats.tail_percentile(lat)
        out["latency_p%s_ms" % ("%g" % p if p else "none")] = (v, "ms", n)
    if late:
        p, v, n = stats.tail_percentile(late)
        out["loadgen.late_p%s_ms" % ("%g" % p if p else "none")] = (v, "ms", n)
    return out


def run_tracer(wl, ctx, traced):
    tdir = os.path.join(ctx.work, "tracer")
    workloads.reset_dir(tdir)
    wl.tracer_state(ctx)
    argv = [ctx.tracer] + wl.tracer_args(ctx) + ["--out", ".", "--trace", "1" if traced else "0"]
    res = subprocess.run(argv, cwd=tdir, env=ctx.env(), capture_output=True, text=True,
                         timeout=170)
    if res.returncode != 0:
        raise RuntimeError("tracer failed (%d): %s" % (res.returncode, res.stderr[-2000:]))
    report = json.loads(res.stdout.strip().splitlines()[-1])
    report.update(wl.tracer_extra(ctx, report, tdir))
    return report, tdir


def trace(wl, ctx, digests):
    """Traced: the in-process replay with the recorder off, then on."""
    wl.prepare(ctx)
    header = workloads.artifact_header(ctx)
    loadgen_m = {"loadgen.sent": 0.0, "loadgen.late_p99_ms": 0.0}
    attempted, failed, correct = 0, 0, True
    pinned = wl.pinned(digests, ctx)
    if wl.name == "monitor-mixed" or pinned is None:
        # One untraced run of the binary: the load generator's figures
        # come from it, and without a pin its outputs are the reference
        # the replay's must equal.
        rep = wl.rep(ctx)
        if wl.name == "monitor-mixed":
            late = stats.lateness(rep.extra["due"], rep.extra["sent"])
            _, v, _ = stats.tail_percentile([x * 1e3 for x in late.values()])
            loadgen_m = {"loadgen.sent": float(rep.units), "loadgen.late_p99_ms": v or 0.0}
        attempted += rep.units
        failed += rep.failed
        correct = compare(rep.digests, pinned)
        pinned = pinned or rep.digests
    plain, _ = run_tracer(wl, ctx, False)
    report, tdir = run_tracer(wl, ctx, True)
    if wl.name == "crossval-unknowns":
        path = os.path.join(tdir, "results", "crossval_continuous.csv")
        got = {"csv": workloads.sha256_file(path)}
        failed += int(report["errors"]) + int(report["failures"])
    elif wl.name == "monitor-mixed":
        got = report.get("digests", {})
    else:
        got = wl.output_digests(tdir)
    correct = correct and compare(got, pinned)
    span_list = spans.read_spans(os.path.join(tdir, "spans.tsv"))
    metrics, dominant, shares = spans.layer_metrics(span_list, report)
    if wl.name.startswith("census"):
        metrics["margins.artifact_bytes"] = float(report.get("artifact_bytes", 0))
    else:
        metrics["margins.artifact_bytes"] = 0.0
    metrics.update(loadgen_m)
    traced_s = int(report["e2e_ns"]) / 1e9
    plain_s = int(plain["e2e_ns"]) / 1e9
    metrics["trace.e2e_s"] = traced_s
    metrics["trace.untraced_e2e_s"] = plain_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.spans"] = float(report["spans"])
    attempted += max(1, int(report.get("requests", 0)) or len({s.key for s in span_list}))
    failed += int(report.get("quarantined", 0))
    record = {
        "header": header,
        "dominant_layer": dominant,
        "layer_shares": shares,
        "tracer_digests": got,
        "tracer_report": report,
        "pinned": pinned,
    }
    return correct and failed == 0, attempted, failed, metrics, record


def emit_table(title, rows):
    log(title)
    for name, (value, unit, n) in rows.items():
        shown = "n/a" if value is None else "%.6g" % value
        log("  %-28s %14s %-6s n=%d" % (name, shown, unit, n))


def run_one(args, spec, root, digests):
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("unknown workload %r; one of %s" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(target)
    build(root, target)
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, WORK_DIR, ("smoke-" if args.smoke else "") + args.workload)
    workloads.reset_dir(work)
    ctx = workloads.Ctx(root, work, os.path.join(target, "release"),
                        os.path.join(target, "release", "perfbench-tracer"),
                        args.seed, args.smoke)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "pinned_outputs": wl.pinned(digests, ctx) is not None,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "commit": commit_of(root),
        "nproc": nproc(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
    steal0 = steal_s()
    if args.trace:
        correct, attempted, failed, metrics, record = trace(wl, ctx, digests)
        wanted = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in wanted}
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        emit_table("%s traced (dominant layer: %s)" % (args.workload, record["dominant_layer"]),
                   {k: (v["value"], v["unit"], 1) for k, v in out.items()})
    else:
        correct, attempted, failed, figures, named, record = measure(
            wl, ctx, args.seconds, digests)
        if any(v is None for v, _, _ in figures.values()):
            correct = False
        emit_table("%s end-to-end" % args.workload, {**figures, **named})
        out = {m["name"]: {"value": figures[m["name"]][0] or 0.0,
                           "unit": figures[m["name"]][1]}
               for m in spec["end_to_end"]}
        record["workload_metrics"] = {k: list(v) for k, v in named.items()}
    meta["loadavg_1m_end"] = os.getloadavg()[0]
    steal1 = steal_s()
    meta["cpu_steal_s"] = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    meta["margin_artifact"] = record.pop("header")
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
              "metrics": out}
    os.makedirs(os.path.join(root, WORK_DIR, "results"), exist_ok=True)
    write_atomic(os.path.join(root, WORK_DIR, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace)),
        json.dumps({"meta": meta, "record": record, "result": result}, indent=1, default=str))
    log("meta: " + json.dumps(meta))
    return result


def record_digests(root, digests, names):
    """Re-pins the output digests of `names` from this checkout's binaries."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(root, ".bench_build"))
    build(root, target)
    for name in names:
        wl = workloads.WORKLOADS[name]
        seeded = not name.startswith("census")
        for seed in (workloads.PINNED_SEEDS if seeded else [0]):
            work = os.path.join(root, WORK_DIR, name)
            workloads.reset_dir(work)
            ctx = workloads.Ctx(root, work, os.path.join(target, "release"), None, seed, False)
            wl.prepare(ctx)
            rep = wl.rep(ctx)
            if rep.failed:
                raise RuntimeError("%s seed %d failed while recording" % (name, seed))
            if seeded:
                digests.setdefault(name, {})[str(seed)] = rep.digests
            else:
                digests[name] = rep.digests
            log("pinned %s seed %d: %s" % (name, seed, rep.digests))
    write_atomic(os.path.join(HERE, "digests.json"), json.dumps(digests, indent=1) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1, help="a whole number >= 0")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload untraced")
    p.add_argument("--smoke", action="store_true", help="tiny sizes; no pinned digests")
    p.add_argument("--record-digests", action="store_true",
                   help="re-pin output digests (all workloads, or --workload's)")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        log("run.py: %s is not a checkout of the repository (no Cargo.toml/crates)" % root)
        return 2
    spec = load_spec(root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    if args.record_digests:
        record_digests(root, digests, [args.workload] if args.workload else workloads.WORKLOADS)
        return 0
    if args.all:
        ok = True
        for name in workloads.WORKLOADS:
            args.workload = name
            result = run_one(args, spec, root, digests)
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
        return 0 if ok else 1
    if not args.workload:
        p.error("--workload or --all is required")
    result = run_one(args, spec, root, digests)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

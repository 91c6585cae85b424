"""The four workloads: how each prepares its state, measures set-up,
runs one repetition of its binary, checks outputs, and replays itself
through the tracer."""

import csv
import hashlib
import os
import re
import shutil

from . import loadgen, procs

CORPUS = os.path.join("crates", "experiments", "tests", "data", "witness_corpus.txt")

# Seeds whose outputs are pinned in digests.json. Other seeds get every
# check that needs no pin: exit codes, crossval's zero-discrepancy line,
# one response per request with none quarantined, identical outputs
# across repetitions, and traced outputs equal to the binary's.
PINNED_SEEDS = range(16)

# Portfolio check budget of every budgeted search, and the task count of
# the crossval scan: passed to the binaries and to the tracer alike.
BUDGET = "50000"
CROSSVAL_N = "16"

CROSSVAL_CLEAN = re.compile(
    r"crossval: 0 bound violations, 0 WCRT-tightness misses, 0 ledger mismatches, "
    r"0 verdict replay failures, 0 errors")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Rep:
    """One repetition of a workload's binary."""

    def __init__(self, wall_s, units, throughput, rss_mb, failed, digests, extra=None):
        self.wall_s = wall_s
        self.units = units
        self.throughput = throughput
        self.rss_mb = rss_mb
        self.failed = failed
        self.digests = digests
        self.extra = extra or {}


class Ctx:
    """Paths and settings shared by one run."""

    def __init__(self, root, work, bins, tracer, seed, smoke):
        self.root = root
        self.work = work
        self.bins = bins
        self.tracer = tracer
        self.seed = seed
        self.smoke = smoke
        self.artifact = os.path.join(work, "artifact")

    def env(self):
        env = dict(os.environ)
        env["CSA_MARGIN_CACHE_DIR"] = self.artifact
        return env

    def bin(self, name):
        return os.path.join(self.bins, name)


def artifact_header(ctx):
    """The margin artifact's fingerprint line, or "cold"."""
    path = os.path.join(ctx.artifact, "margin_tables.csamt")
    try:
        with open(path) as f:
            for line in f:
                if not line.startswith("#"):
                    return line.strip()
    except OSError:
        pass
    return "cold"


class Census:
    """A `census` sweep; `warm` selects a pre-built margin artifact."""

    def __init__(self, name, flags, n, benchmarks, smoke_n, threads, warm, checkpoint):
        self.name = name
        self.flags = flags
        self.n = n
        self.benchmarks = benchmarks
        self.smoke_n = smoke_n
        self.threads = threads
        self.warm = warm
        self.checkpoint = checkpoint
        # A warm probe takes a few milliseconds, and its cost swings
        # from one half second to the next on a shared host. So warm
        # probes run on the other core all through the repetitions (the
        # sweep uses one thread); a cold probe takes two cores and over
        # a second, so cold probes run before them.
        self.setup_reps = 41 if warm else 3
        self.probe_alongside = warm
        self.unit = "instances"
        self.throughput_name = "instances_per_s"

    def probe_n(self):
        """The smallest size: the first task count of the smoke sweep."""
        return self.smoke_n.split(",")[0]

    def sizes(self, ctx):
        if ctx.smoke:
            return self.smoke_n, 300
        return self.n, self.benchmarks

    def argv(self, ctx, n, benchmarks, cp_dir):
        args = [ctx.bin("census"), "--threads", str(self.threads)] + self.flags
        args += ["--n", n]
        if benchmarks == 300:
            args.append("--quick")
        if self.checkpoint:
            args += ["--checkpoint-dir", cp_dir]
        return args

    def prepare(self, ctx):
        reset_dir(ctx.artifact)
        if self.warm:
            res = procs.run_timed(self.argv(ctx, self.probe_n(), 300, self._cp(ctx)),
                                  ctx.work, ctx.env())
            if res.code != 0:
                raise RuntimeError("%s: artifact warm-up exited %d" % (self.name, res.code))

    def _cp(self, ctx):
        path = os.path.join(ctx.work, "checkpoint")
        reset_dir(path)
        return path

    def _fresh_state(self, ctx):
        if not self.warm:
            reset_dir(ctx.artifact)

    def setup_once(self, ctx):
        self._fresh_state(ctx)
        probe = os.path.join(ctx.work, "probe")
        reset_dir(probe)
        cp_dir = os.path.join(probe, "checkpoint")
        os.makedirs(cp_dir)
        code, cpu_s = procs.cpu_run(self.argv(ctx, self.probe_n(), 300, cp_dir),
                                    probe, ctx.env())
        return cpu_s if code == 0 else None

    def csv_name(self):
        if "continuous" in self.flags:
            return "census_continuous_portfolio_budget%s.csv" % BUDGET
        return "census.csv"

    def witness_name(self):
        profile = "continuous" if "continuous" in self.flags else "grid-snapped"
        return "witnesses_census_%s.txt" % profile

    def output_digests(self, base):
        out = {}
        csv_path = os.path.join(base, "results", self.csv_name())
        out["csv"] = sha256_file(csv_path) if os.path.exists(csv_path) else None
        wpath = os.path.join(base, "results", self.witness_name())
        out["witnesses"] = sha256_file(wpath) if os.path.exists(wpath) else "none"
        return out

    def rep(self, ctx):
        self._fresh_state(ctx)
        results = os.path.join(ctx.work, "results")
        reset_dir(results)
        n, benchmarks = self.sizes(ctx)
        res = procs.run_timed(self.argv(ctx, n, benchmarks, self._cp(ctx)), ctx.work, ctx.env())
        units, failed = 0, 0
        path = os.path.join(results, self.csv_name())
        if res.code == 0 and os.path.exists(path):
            with open(path) as f:
                for row in csv.DictReader(f):
                    units += int(row["benchmarks"])
                    failed += int(row["quarantined"])
        expected = len(n.split(",")) * benchmarks
        if res.code != 0 or units != expected:
            failed += expected - units if units < expected else expected
            units = expected
        digests = self.output_digests(ctx.work)
        # The sweep runs from the end of the margin set-up (the artifact
        # write when cold, the first line when warm) to the shard summary;
        # timing it inside the same process avoids subtracting a set-up
        # time measured in other processes.
        start = res.stamp_of("margins: wrote artifact") or res.stamp_of("census: ")
        end = res.stamp_of("shard(s) computed")
        work_s = end - start if start is not None and end is not None else None
        return Rep(res.wall_s, units, units / work_s if work_s else None,
                   res.rss_mb, failed, digests)

    def tracer_args(self, ctx):
        n, benchmarks = self.sizes(ctx)
        profile = "continuous" if "continuous" in self.flags else "grid-snapped"
        search = "portfolio" if "portfolio" in self.flags else "backtracking"
        budget = BUDGET if "portfolio" in self.flags else str(2 ** 64 - 1)
        args = ["census", "--profile", profile, "--search", search, "--budget", budget,
                "--n", n, "--benchmarks", str(benchmarks), "--threads", str(self.threads)]
        if self.checkpoint:
            args += ["--checkpoint-dir", self._cp(ctx)]
        return args

    def tracer_state(self, ctx):
        self._fresh_state(ctx)

    def tracer_extra(self, ctx, report, tdir):
        """Counters the tracer cannot see from inside: journal and
        artifact sizes, truncations from the written CSV."""
        extra = {}
        journal = os.path.join(ctx.work, "checkpoint", "census.csacp")
        if self.checkpoint and os.path.exists(journal):
            extra["journal_bytes"] = os.path.getsize(journal)
            extra["journal_saves"] = int(report.get("shards", 0))
        art = os.path.join(ctx.artifact, "margin_tables.csamt")
        extra["artifact_bytes"] = os.path.getsize(art) if os.path.exists(art) else 0
        path = os.path.join(tdir, "results", self.csv_name())
        if os.path.exists(path):
            with open(path) as f:
                extra["truncated"] = sum(int(r["truncated"]) for r in csv.DictReader(f))
        return extra

    def pinned(self, digests, ctx):
        return None if ctx.smoke else digests.get(self.name)


class Monitor:
    """The `monitor` service driven by the seeded request stream."""

    name = "monitor-mixed"
    unit = "requests"
    throughput_name = "capacity_rps"
    setup_reps = 0
    probe_alongside = False
    FLAGS = ["--threads", "1", "--batch", "1", "--search", "portfolio", "--budget", BUDGET]

    def shape(self, ctx):
        if ctx.smoke:
            return loadgen.StreamShape(open_requests=100, open_rate=500.0, burst_requests=200)
        return loadgen.StreamShape(open_requests=3000, open_rate=1500.0, burst_requests=30000)

    def prepare(self, ctx):
        reset_dir(ctx.artifact)
        lists = loadgen.corpus_task_lists(os.path.join(ctx.root, CORPUS))
        self.phases = loadgen.make_stream(ctx.seed, self.shape(ctx), lists)
        self.stream_path = os.path.join(ctx.work, "stream.jsonl")
        with open(self.stream_path, "w") as f:
            for phase in self.phases:
                for _, line in phase:
                    f.write(line + "\n")

    def rep(self, ctx):
        warm, open_phase, burst = self.phases
        reset_dir(os.path.join(ctx.work, "results"))
        run = loadgen.drive([ctx.bin("monitor")] + self.FLAGS, ctx.work, ctx.env(),
                            warm, open_phase, burst, self.shape(ctx).open_rate,
                            os.path.join(ctx.work, "monitor.stderr"))
        sent = len(warm) + len(open_phase) + len(burst)
        answered = len(run.responses)
        body = b"\n".join(run.responses[i] for i in sorted(run.responses))
        quarantined = body.count(b'"verdict":"quarantined"')
        failed = sent - answered + quarantined + (sent if run.code != 0 else 0)
        cap = loadgen.capacity_rps(run)
        extra = {"setup_s": run.setup_s, "due": run.due, "sent": run.sent, "done": run.done,
                 "capacity_wall_rps": loadgen.capacity_wall_rps(run)}
        return Rep(run.wall_s, sent, cap, run.rss_mb, min(failed, sent),
                   {"responses": sha256_bytes(body)}, extra)

    def tracer_args(self, ctx):
        return ["monitor", "--stream", self.stream_path, "--budget", BUDGET]

    def tracer_state(self, ctx):
        pass

    def tracer_extra(self, ctx, report, tdir):
        extra = {}
        path = os.path.join(tdir, "responses.jsonl")
        if os.path.exists(path):
            with open(path, "rb") as f:
                lines = [ln.rstrip(b"\n") for ln in f if b'"verdict"' in ln]
            extra["truncated"] = sum(1 for ln in lines if b'"truncated":true' in ln)
            ids = [int(loadgen.ID_RE.match(ln).group(1)) for ln in lines]
            body = b"\n".join(ln for _, ln in sorted(zip(ids, lines)))
            extra["digests"] = {"responses": sha256_bytes(body)}
        stream = [line for phase in self.phases for _, line in phase]
        extra["margin_tight_share"] = sum('"margin-tight"' in ln for ln in stream) / len(stream)
        extra["inline_share"] = sum('"tasks"' in ln for ln in stream) / len(stream)
        return extra

    def pinned(self, digests, ctx):
        return None if ctx.smoke else digests.get(self.name, {}).get(str(ctx.seed))


class Crossval:
    """`crossval` over the corpus plus a seeded portfolio-unknown scan."""

    name = "crossval-unknowns"
    unit = "sim_jobs"
    throughput_name = "sim_jobs_per_s"
    setup_reps = 5
    probe_alongside = False

    def unknowns(self, ctx):
        return 20 if ctx.smoke else 2000

    def argv(self, ctx, unknowns, extra=()):
        return [ctx.bin("crossval"), "--threads", "1", "--profile", "continuous",
                "--n", CROSSVAL_N, "--budget", BUDGET,
                "--unknowns", str(unknowns), "--seed", str(ctx.seed)] + list(extra)

    def prepare(self, ctx):
        reset_dir(ctx.artifact)

    def setup_once(self, ctx):
        code, cpu_s = procs.cpu_run(self.argv(ctx, 1, ["--limit", "1"]), ctx.work, ctx.env())
        return cpu_s if code == 0 else None

    def rep(self, ctx):
        results = os.path.join(ctx.work, "results")
        reset_dir(results)
        res = procs.run_timed(self.argv(ctx, self.unknowns(ctx)), ctx.work, ctx.env())
        path = os.path.join(results, "crossval_continuous.csv")
        jobs, rows = 0, 0
        if os.path.exists(path):
            with open(path) as f:
                for row in csv.DictReader(f):
                    jobs += int(row["jobs"])
                    rows += 1
        clean = res.code == 0 and CROSSVAL_CLEAN.search(res.text()) is not None
        instances = rows // 3
        scan_end = res.stamp_of("portfolio-unknowns")
        sim_s = res.wall_s - scan_end if scan_end is not None else None
        digests = {"csv": sha256_file(path) if os.path.exists(path) else None}
        return Rep(res.wall_s, jobs, jobs / sim_s if sim_s else None, res.rss_mb,
                   0 if clean else max(1, instances), digests,
                   {"instances": instances, "sim_s": sim_s})

    def tracer_args(self, ctx):
        return ["crossval", "--seed", str(ctx.seed), "--n", CROSSVAL_N,
                "--unknowns", str(self.unknowns(ctx)), "--budget", BUDGET]

    def tracer_state(self, ctx):
        pass

    def tracer_extra(self, ctx, report, tdir):
        extra = {"truncated": 0}
        path = os.path.join(tdir, "results", "crossval_continuous.csv")
        if os.path.exists(path):
            with open(path) as f:
                sources = [r["source"] for r in csv.DictReader(f) if r["policy"] == "worst"]
            extra["truncated"] = sum(1 for s in sources if s.startswith("unknown"))
        return extra

    def pinned(self, digests, ctx):
        return None if ctx.smoke else digests.get(self.name, {}).get(str(ctx.seed))


WORKLOADS = {
    "census-grid": Census(
        "census-grid", [], "4,8,12,16,20", 20000, "4,8", threads=1, warm=True, checkpoint=True),
    "census-continuous-cold": Census(
        "census-continuous-cold",
        ["--profile", "continuous", "--search", "portfolio", "--budget", BUDGET],
        "16,20", 20000, "4,8", threads=2, warm=False, checkpoint=False),
    "monitor-mixed": Monitor(),
    "crossval-unknowns": Crossval(),
}

"""The monitor workload's request stream and the open-loop client that
sends it.

The stream is a pure function of the seed: a warm-up prefix with one
request per cell, an open-loop phase sent on a fixed schedule, and a
burst phase written as fast as the monitor reads it. Generated requests
draw their instance index with skew from a bounded pool per cell, so
some task sets repeat (the monitor's warm memo bank hits) while the
pool is larger than the bank (it evicts). A share of requests carry an
inline task list from the committed witness corpus instead.
"""

import os
import random
import re
import subprocess
import threading
import time

from . import procs

PROFILES = ("grid-snapped", "margin-tight")
TASK_COUNTS = (4, 8, 12)
CELLS = tuple((p, n) for p in PROFILES for n in TASK_COUNTS)

ID_RE = re.compile(rb'^\{"id":(\d+),')

# Generated indices are drawn as floor(POOL * u**SKEW) per cell. With six
# cells the pool holds 9000 task sets, far more than the monitor's
# 512-table memo bank, so the bank evicts; the skew puts a fifth of the
# draws on each cell's first dozen indices, so it also hits.
POOL = 1500
SKEW = 3.0
# Share of requests carrying an inline witness task list.
INLINE_SHARE = 0.1


class StreamShape:
    """Sizes of one stream; the same for every seed of a workload."""

    def __init__(self, open_requests, open_rate, burst_requests):
        self.open_requests = open_requests
        self.open_rate = open_rate
        self.burst_requests = burst_requests


def corpus_task_lists(corpus_path):
    """Task lists of the witness corpus (the last `|` field of each
    `csaw1` line)."""
    with open(corpus_path) as f:
        return [line.rstrip("\n").rsplit("|", 1)[1]
                for line in f if line.startswith("csaw1|")]


def make_stream(seed, shape, task_lists):
    """Returns (warm, open, burst): lists of (id, line) for each phase."""
    rng = random.Random("monitor-mixed/%d" % seed)
    base_seed = 1000 + seed
    next_id = [0]

    def generated(profile, n, index):
        next_id[0] += 1
        rid = next_id[0]
        return rid, ('{"id":%d,"profile":"%s","seed":%d,"n":%d,"index":%d}'
                     % (rid, profile, base_seed, n, index))

    def inline(tasks):
        next_id[0] += 1
        rid = next_id[0]
        return rid, '{"id":%d,"tasks":"%s"}' % (rid, tasks)

    def draw():
        if rng.random() < INLINE_SHARE:
            return inline(rng.choice(task_lists))
        profile, n = rng.choice(CELLS)
        return generated(profile, n, int(POOL * rng.random() ** SKEW))

    warm = [generated(p, n, 0) for p, n in CELLS] + [inline(task_lists[0])]
    open_phase = [draw() for _ in range(shape.open_requests)]
    burst = [draw() for _ in range(shape.burst_requests)]
    return warm, open_phase, burst


class MonitorRun:
    """Figures of one monitor process driven through the three phases."""

    def __init__(self):
        self.setup_s = None
        self.due = {}
        self.sent = {}
        self.done = {}
        self.burst_ids = []
        self.burst_cpu_s = None
        self.responses = {}
        self.code = None
        self.rss_mb = None
        self.wall_s = None


def drive(argv, cwd, env, warm, open_phase, burst, open_rate, stderr_path,
          timeout_s=150.0):
    """Starts the monitor, sends the warm-up prefix and waits for its
    answers (the monitor's CPU time until then is the set-up time), sends
    the open-loop phase on its schedule, waits for it to drain, then
    writes the burst at once."""
    run = MonitorRun()
    cond = threading.Condition()
    with open(stderr_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err)
        peak = procs.PeakRss(proc.pid, argv[0])

        def reader():
            for line in proc.stdout:
                m = ID_RE.match(line)
                if m and b'"verdict"' in line:
                    rid = int(m.group(1))
                    t = time.perf_counter()
                    with cond:
                        run.done[rid] = t
                        run.responses[rid] = line.rstrip(b"\n")
                        cond.notify_all()
            with cond:
                cond.notify_all()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        deadline = t_spawn + timeout_s

        def wait_for(ids):
            with cond:
                while not all(i in run.done for i in ids):
                    if not thread.is_alive() or time.perf_counter() > deadline:
                        return False
                    cond.wait(0.05)
            return True

        fd = proc.stdin.fileno()
        try:
            os.write(fd, "".join(line + "\n" for _, line in warm).encode())
            if wait_for([i for i, _ in warm]):
                # The monitor idles on stdin once the warm-up is answered,
                # so its CPU time stops there.
                run.setup_s = procs.cpu_seconds(proc.pid)
                t0 = time.perf_counter()
                for k, (rid, line) in enumerate(open_phase):
                    due = t0 + k / open_rate
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    os.write(fd, (line + "\n").encode())
                    run.sent[rid] = time.perf_counter()
                    run.due[rid] = due
                if wait_for([i for i, _ in open_phase]):
                    run.burst_ids = [i for i, _ in burst]
                    cpu0 = procs.cpu_seconds(proc.pid)
                    proc.stdin.write("".join(line + "\n" for _, line in burst).encode())
                    proc.stdin.flush()
                    # The monitor idles on stdin once the burst is answered,
                    # so its CPU time stops there.
                    if wait_for(run.burst_ids):
                        run.burst_cpu_s = procs.cpu_seconds(proc.pid) - cpu0
        except BrokenPipeError:
            pass
        finally:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
            thread.join(max(1.0, deadline - time.perf_counter()))
            if thread.is_alive():
                proc.kill()
                thread.join()
            run.code, run.rss_mb = procs.wait_peak(proc, peak)
            proc.stdout.close()
            run.wall_s = time.perf_counter() - t_spawn
    return run


def capacity_rps(run):
    """Burst requests per second of the monitor's CPU time: its saturation
    rate on one dedicated core. The monitor runs one thread, so CPU time
    is its busy time; unlike wall time it does not count the time other
    processes on a shared host hold the core."""
    if not run.burst_cpu_s or run.burst_cpu_s <= 0:
        return None
    return len(run.burst_ids) / run.burst_cpu_s


def capacity_wall_rps(run):
    """Responses per second across the burst, first to last response."""
    stamps = sorted(run.done[i] for i in run.burst_ids if i in run.done)
    if len(stamps) < 2 or stamps[-1] <= stamps[0]:
        return None
    return (len(stamps) - 1) / (stamps[-1] - stamps[0])

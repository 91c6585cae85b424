"""Starting the program's processes, timing them, and reading their
peak memory.

Peak memory is the process's own high-water mark (`VmHWM` in
/proc/PID/status), sampled while it runs. `ru_maxrss` from wait4 cannot
be used: exec records the spawning interpreter's resident size into it,
which is larger than the binaries' own peak.
"""

import os
import subprocess
import threading
import time

POLL_S = 0.005


class PeakRss:
    """Samples a running process's VmHWM until it exits. Samples taken
    before the exec (when the child still shares the spawner's memory)
    are skipped by checking the process name."""

    def __init__(self, pid, argv0):
        self.path = "/proc/%d/status" % pid
        self.comm = os.path.basename(argv0)[:15]
        self.kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _sample(self):
        try:
            with open(self.path) as f:
                text = f.read()
        except OSError:
            return
        fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
        if fields.get("Name", "").strip() != self.comm or "VmHWM" not in fields:
            return
        self.kb = max(self.kb, int(fields["VmHWM"].split()[0]))

    def _poll(self):
        # Sample densely at first so short-lived processes are seen too.
        pause = POLL_S / 64
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(pause)
            pause = min(POLL_S, pause * 2)

    def stop(self):
        """Stops sampling; returns the peak in MB (None if never seen)."""
        self._stop.set()
        self._thread.join()
        return self.kb / 1024.0 if self.kb else None


def cpu_seconds(pid):
    """User plus system CPU time of a running process, from /proc."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Finished:
    """A finished process: wall time, exit code, peak RSS and its stderr
    lines, each stamped with the seconds since spawn it was read at."""

    def __init__(self, wall_s, code, rss_mb, stderr):
        self.wall_s = wall_s
        self.code = code
        self.rss_mb = rss_mb
        self.stderr = stderr

    def stamp_of(self, needle):
        """Seconds since spawn at which the first stderr line containing
        `needle` arrived, or None."""
        for t, line in self.stderr:
            if needle in line:
                return t
        return None

    def text(self):
        return "".join(line for _, line in self.stderr)


def cpu_run(argv, cwd, env, timeout_s=170.0):
    """Runs `argv` to completion with its output discarded; returns (exit
    code, user plus system CPU seconds of all its threads, from wait4)."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        # Reaped here rather than by Popen.wait, which drops the rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime


def wait_peak(proc, peak):
    """Waits for `proc`; returns (exit code, peak RSS in MB)."""
    code = proc.wait()
    return code, peak.stop()


def run_timed(argv, cwd, env, stdout_path=None, timeout_s=170.0):
    """Runs `argv` to completion; stdout goes to `stdout_path` (or is
    discarded), stderr is read line by line and time-stamped."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out,
            stderr=subprocess.PIPE, text=True,
        )
        peak = PeakRss(proc.pid, argv[0])
        lines = []
        try:
            for line in proc.stderr:
                lines.append((time.perf_counter() - t0, line))
                if time.perf_counter() - t0 > timeout_s:
                    proc.kill()
                    break
        finally:
            proc.stderr.close()
            code, rss = wait_peak(proc, peak)
        wall = time.perf_counter() - t0
    finally:
        if stdout_path:
            out.close()
    return Finished(wall, code, rss, lines)

"""Per-layer figures from the tracer's span file.

A span's self time is its duration minus the part of its interval that
its child spans cover (children may run on other threads and overlap,
so the covered part is the union of their intervals).
"""

from . import stats

# Span name -> layer. Spans named `replay.*` re-run engine steps after
# the timed stream and belong to no layer of the timed run.
LAYER_OF = {
    "margins.load": "margins",
    "margins.build": "margins",
    "benchgen": "benchgen",
    "search": "search",
    "classify.wide": "classify",
    "classify.cert_lie": "classify",
    "classify.interference": "classify",
    "classify.priority_raise": "classify",
    "classify.opa": "classify",
    "classify.unsafe": "classify",
    "orchestrate": "orchestrate",
    "instance": "orchestrate",
    "report.write": "orchestrate",
    "request": "monitor",
    "jsonl.parse": "monitor",
    "jsonl.serialize": "monitor",
    "engine.submit": "monitor",
    "crossval.scan": "sim",
    "sim": "sim",
}
LAYERS = ("margins", "benchgen", "search", "classify", "orchestrate", "monitor", "sim")
DETECTORS = ("cert_lie", "interference", "priority_raise", "opa", "unsafe")


class Span:
    __slots__ = ("id", "parent", "name", "key", "start", "end", "logical", "computed")

    def __init__(self, fields):
        self.id = int(fields[0])
        self.parent = int(fields[1])
        self.name = fields[2]
        self.key = int(fields[3])
        self.start = int(fields[4])
        self.end = int(fields[5])
        self.logical = int(fields[6])
        self.computed = int(fields[7])

    @property
    def dur(self):
        return self.end - self.start


def read_spans(path):
    with open(path) as f:
        next(f)
        return [Span(line.rstrip("\n").split("\t")) for line in f]


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Maps span id to self time in ns."""
    children = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.dur - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def layer_metrics(spans, report):
    """Per-layer metrics of one traced replay. `report` is the tracer's
    JSON line (counters it measured at the same boundaries)."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    layer_self = dict.fromkeys(LAYERS, 0)
    for s in spans:
        layer = LAYER_OF.get(s.name)
        if layer:
            layer_self[layer] += selfs[s.id]

    def total(name, attr="dur"):
        return sum(getattr(s, attr) for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    run_ns = total("run") or 1
    m = {}
    m["margins.build_s"] = total("margins.build") / 1e9
    m["margins.load_s"] = total("margins.load") / 1e9
    m["margins.cells"] = float(report.get("margins_cells", 0))

    replayed_benchgen = total("replay.benchgen")
    bg_calls = count("benchgen") + count("replay.benchgen")
    bg_ns = total("benchgen") + replayed_benchgen
    m["benchgen.calls"] = float(bg_calls)
    m["benchgen.us_per_call"] = bg_ns / bg_calls / 1e3 if bg_calls else 0.0
    m["benchgen.share"] = bg_ns / run_ns

    logical = total("search", "logical")
    computed = total("search", "computed")
    m["search.s"] = layer_self["search"] / 1e9
    m["search.logical_checks"] = float(logical)
    m["search.computed_checks"] = float(computed)
    m["search.memo_hit_ratio"] = 1.0 - computed / logical if logical else 0.0
    m["search.truncated"] = float(report.get("truncated", 0))

    checker_ns = layer_self["search"]
    checker_computed = computed
    for d in DETECTORS:
        name = "classify." + d
        m[name + ".s"] = total(name) / 1e9
        m[name + ".computed_checks"] = float(total(name, "computed"))
        checker_ns += total(name)
        checker_computed += total(name, "computed")
    m["checker.ns_per_computed_check"] = (
        checker_ns / checker_computed if checker_computed else 0.0)

    m["orchestrate.overhead_s"] = (
        sum(selfs[s.id] for s in by_name.get("orchestrate", ()))
        + sum(selfs[s.id] for s in by_name.get("instance", ()))) / 1e9
    m["journal.saves"] = float(report.get("journal_saves", 0))
    m["journal.bytes"] = float(report.get("journal_bytes", 0))
    m["report.write_s"] = total("report.write") / 1e9

    submits = [s.dur / 1e3 for s in by_name.get("engine.submit", ())]
    requests = len(submits)
    m["jsonl.parse_us"] = total("jsonl.parse") / 1e3 / requests if requests else 0.0
    m["jsonl.serialize_us"] = total("jsonl.serialize") / 1e3 / requests if requests else 0.0
    m["engine.submit_us_p50"] = stats.percentile(sorted(submits), 50) if submits else 0.0
    _, p_tail, _ = stats.tail_percentile(submits)
    m["engine.submit_us_p99"] = p_tail or 0.0
    lookups = int(report.get("bank_lookups", 0))
    m["engine.bank_hit_ratio"] = int(report.get("bank_hits", 0)) / lookups if lookups else 0.0
    m["engine.memo_tables"] = float(report.get("memo_tables", 0))
    m["engine.bank_evictions"] = float(report.get("bank_evictions", 0))
    m["engine.other_us"] = (
        (total("engine.submit") - replayed_benchgen - total("replay.classify")) / 1e3 / requests
        if requests else 0.0)

    jobs = int(report.get("sim_jobs", 0))
    m["crossval.scan_s"] = total("crossval.scan") / 1e9
    m["sim.jobs"] = float(jobs)
    m["sim.ns_per_job"] = total("sim") / jobs if jobs else 0.0

    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer] / 1e9
    # Inside the monitor the engine hides benchgen and classify; charge
    # the replayed share to them for the dominance comparison.
    shares = dict(layer_self)
    if requests:
        shares["benchgen"] += replayed_benchgen
        shares["classify"] += total("replay.classify")
        shares["monitor"] = max(0, shares["monitor"] - replayed_benchgen
                                - total("replay.classify"))
    dominant = max(LAYERS, key=lambda layer: shares[layer])
    return m, dominant, {k: v / run_ns for k, v in shares.items()}

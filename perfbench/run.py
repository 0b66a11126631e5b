"""doublesign benchmark: one seeded workload per run, end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve_n6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 --tag before

A run loads ``src/doublesign`` from the checkout it sits in, and nothing
else.  It generates every input from ``--seed`` outside the timed region,
drives the library from one process with one caller in a closed loop (the
next call starts when the previous one returns; library ``jobs`` stay at
1), checks every output with the checkers in ``checks.py``, and prints a
human-readable report followed by one JSON result line.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of ``import doublesign`` plus the first public call,
which builds the lazy tables), ``latency_ref_p50``/``latency_ref_p90``
of warm calls and ``calls_per_ref``, in units of a reference task timed
beside every batch (see ``REFERENCES``; the wall-clock figures are
printed too), and the process's own ``peak_rss_mb`` from ``getrusage``
after a fixed number of calls.  ``--trace 1`` splits set-up into
its table builds, then runs half its time traced and half untraced.  A
traced request is a root span; the benchmark times the public call and
calls into the layers' public functions on the same input as its children.
Spans are kept in memory and written to ``perfbench/out/`` at the end.
A layer the workload does not call reports 0.

``--all`` runs every workload with both settings, each in its own
interpreter, and writes ``perfbench/out/BENCH_<tag>.json`` with the
machine facts and the limits below.

Limits: no CPU pinning, no cache dropping, no machine settings touched;
on a shared machine the reference task cancels only most of other
tenants' load; ``setup_s`` is wall time and carries all of it.
Latency here is warm: the first call (about 4 s at n = 80, almost all of it
``census.quad_table``) is reported in ``setup_s`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Trace prefixes that occur on the benchmark's inputs; any other one
#: (the n >= 7 branches, for instance) is counted as ``other``.
BRANCHES = (
    "lemma_b/case1/left_panel",
    "lemma_b/case1/right_panel",
    "lemma_c/case_alpha/case1",
    "lemma_c/case_alpha/case2",
    "lemma_c/case_alpha/case4",
    "lemma_c/case_beta/case1",
    "lemma_c/case_beta/case2",
    "lemma_c/case_beta/case3a",
)

SOLVER_SPANS = (
    "census.triangle_census",
    "census.classify_k4",
    "switching.normalize_at",
    "solver.construct_witnesses",
    "solver.verify_witness_set",
    "graph.walk_sign",
    "solver.case_machine",
)
SWEEP_SPANS = (
    "sweep.signs_from_indices",
    "sweep.analyze_sign_matrix",
    "sweep.allowed_spectrum_mask",
)


def require_sources() -> None:
    if not (SRC / "doublesign" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no doublesign sources under {SRC}")


def import_library():
    """Import doublesign from this checkout's ``src``, or exit non-zero."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import doublesign

    if Path(doublesign.__file__).resolve().parent != (SRC / "doublesign").resolve():
        raise SystemExit(f"benchmark: imported doublesign from {doublesign.__file__}")
    return doublesign


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else 0.0


def python_reference() -> int:
    """A fixed pure-Python task (dict stores, integer XOR)."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        table[i & 255] = acc
        acc ^= (i * 7) & 3
    return acc


@lru_cache(maxsize=None)
def _reference_matrix() -> np.ndarray:
    return np.resize(np.arange(251, dtype=np.uint8), (W.SWEEP_ROWS, 21))


def numpy_reference() -> int:
    """A fixed numpy task shaped like the sweep: XOR of strided label columns."""
    m = _reference_matrix()
    acc = m[:, 0].copy()
    for _ in range(4):
        for j in range(1, m.shape[1]):
            acc ^= m[:, j]
    return int(acc[0])


#: On a shared 2-core virtual machine (Intel Xeon, Python 3.11, numpy 2.4),
#: other tenants slowed the cores by 20-50% for seconds to minutes at a time.  A fixed task of the workload's own kind is timed
#: before and after every batch, and the end-to-end latencies are reported
#: in units of its time: that cancels most of the neighbours' effect, so the
#: figures measure the program rather than the machine's load.
REFERENCES = {"solver": python_reference, "oracle": python_reference,
              "sweep": numpy_reference}


def time_reference(kind: str) -> int:
    t0 = time.perf_counter_ns()
    REFERENCES[kind]()
    return time.perf_counter_ns() - t0


def checked_call(ds, w: W.Workload, x):
    """One public call; an exception is an output for the checker to judge."""
    try:
        return w.call(ds, x)
    except Exception as exc:  # refusals and unexpected errors are both judged by check
        return exc


# -- set-up ------------------------------------------------------------------

def setup_probe() -> None:
    """Child side of a fresh-interpreter set-up sample (payload on stdin)."""
    payload = json.load(sys.stdin)
    w = W.WORKLOADS[payload["workload"]]
    x = w.decode(payload["input"])
    t0 = time.perf_counter()
    ds = import_library()
    x.materialize(ds)
    checked_call(ds, w, x)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def fresh_setup(w: W.Workload, x) -> float:
    payload = json.dumps({"workload": w.name, "input": x.encode()})
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        input=payload, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_setup(w: W.Workload, x, split: bool):
    """Import the library and make the first call; with ``split``, time the
    lazy tables first so set-up breaks down by layer."""
    parts = {}
    t0 = time.perf_counter()
    ds = import_library()
    parts["setup.import_s"] = time.perf_counter() - t0
    if split:
        from doublesign import census, io_gen, oracle

        def first(fn, *args) -> float:
            t = time.perf_counter()
            fn(*args)
            return time.perf_counter() - t

        parts["census.table_build_s"] = first(census.triangle_table, w.n) + first(
            census.quad_table, w.n
        )
        # The circle table holds (n-1)!/2 rows: only defined where the oracle is.
        parts["oracle.circle_edge_indices.setup_s"] = (
            first(oracle.circle_edge_indices, w.n) if w.n <= oracle.ENUMERATION_BOUND else 0.0
        )
        parts["io_gen.free_edges.setup_s"] = first(io_gen.free_edges, w.n)
    t = time.perf_counter()
    x.materialize(ds)
    out = checked_call(ds, w, x)
    parts["setup.first_call_s"] = time.perf_counter() - t
    return ds, time.perf_counter() - t0, out, parts


# -- tracing -----------------------------------------------------------------

class Tracer:
    """Spans kept in memory: (request, name, parent, start_ns, end_ns)."""

    def __init__(self):
        self.spans: list[tuple[int, str, str, int, int]] = []
        self.request = 0

    def span(self, name: str, fn, *args):
        """Time ``fn(*args)`` as a child of the current request's root span."""
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.request, name, "request", t0, time.perf_counter_ns()))

    def durations(self, name: str) -> list[int]:
        return [t1 - t0 for _, n, _, t0, t1 in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def traced_request(ds, w: W.Workload, x, tracer: Tracer):
    """The public call plus child spans on the same input, under one root span."""
    from doublesign import census, graph, solver, sweep, switching

    tracer.request += 1
    t0 = time.perf_counter_ns()
    if w.kind == "solver":
        g = x.graph
        out = tracer.span("solver.construct_witnesses", checked_call, ds, w, x)
        tracer.span("census.triangle_census", census.triangle_census, g)
        tracer.span("census.classify_k4", census.classify_k4, g, (1, 2, 3, 4))
        tracer.span("switching.normalize_at", switching.normalize_at, g, g.n)
        if isinstance(out, solver.WitnessSet):
            tracer.span("solver.verify_witness_set", solver.verify_witness_set, g, out)
            for circle, _ in out.witnesses:
                tracer.span("graph.walk_sign", graph.walk_sign, g, circle)
    elif w.kind == "sweep":
        out = tracer.span("sweep.run_normalized_sweep", checked_call, ds, w, x)
        idx = np.arange(x.start, x.stop)
        signs = tracer.span("sweep.signs_from_indices", sweep.signs_from_indices, x.n, idx)
        batch = tracer.span("sweep.analyze_sign_matrix", sweep.analyze_sign_matrix, x.n, signs)
        tracer.span("sweep.allowed_spectrum_mask", sweep.allowed_spectrum_mask,
                    batch.tri_mask, x.n)
        for r in x.oracle_rows:
            g = ds.SignedCompleteGraph(x.n, signs[r].tobytes())
            tracer.span("oracle.hamiltonian_spectrum", ds.hamiltonian_spectrum, g)
    else:
        out = tracer.span("oracle.hamiltonian_spectrum", checked_call, ds, w, x)
    tracer.spans.append((tracer.request, "request", "", t0, time.perf_counter_ns()))
    return out


def branch_of(out) -> str:
    trace = getattr(out, "trace", None)
    if trace is None:
        return "refused"
    if trace.startswith("fallback"):
        return "fallback"
    return trace if trace in BRANCHES else "other"


# -- the measured loop -------------------------------------------------------

class Loop:
    """Closed loop over seeded batches; checks run after each timed batch."""

    def __init__(self, ds, w: W.Workload, batches, pending: list):
        self.ds, self.w, self.batches, self.pending = ds, w, batches, pending
        self.attempted = 0
        self.failures: list[str] = []
        self.branches: dict[str, int] = {}
        # Per timed batch: (reference ns, batch wall s, calls in the batch),
        # the reference being the mean of one run before and one after.
        self.records: list[tuple[int, float, int]] = []

    def judge(self, x, out) -> str:
        """Check one output; return its solver branch ("" off the solver)."""
        self.attempted += 1
        problem = self.w.check(self.ds, x, out)
        if problem is not None:
            self.failures.append(problem)
        b = branch_of(out) if self.w.kind == "solver" else ""
        if b:
            self.branches[b] = self.branches.get(b, 0) + 1
        return b

    def run(self, seconds: float, request, min_calls: int = 0):
        """Time ``request`` per call until ``seconds`` of loop wall time and
        ``min_calls`` calls; returns (latencies_ns, branch per call, wall_s).
        Outputs are dropped once checked, so the heap stays the same size."""
        lat: list[int] = []
        branches: list[str] = []
        wall = 0.0
        while wall < seconds or len(lat) < min_calls:
            batch, self.pending = self.pending or next(self.batches), []
            for x in batch:
                x.materialize(self.ds)
            ref_ns = time_reference(self.w.kind)
            start = time.perf_counter()
            done = []
            for x in batch:
                t0 = time.perf_counter_ns()
                out = request(x)
                lat.append(time.perf_counter_ns() - t0)
                done.append(out)
            batch_wall = time.perf_counter() - start
            wall += batch_wall
            ref_ns = (ref_ns + time_reference(self.w.kind)) // 2
            self.records.append((ref_ns, batch_wall, len(batch)))
            for x, out in zip(batch, done):
                branches.append(self.judge(x, out))
        return lat, branches, wall


def in_reference_units(lat: list[int], records: list) -> tuple[list[float], float]:
    """Per-call latencies and loop wall time in reference units.

    Each batch is divided by the median reference time of itself and its
    two neighbours, so a slow spell of the machine divides out of the
    calls it slowed, and one outlying reference sample moves nothing.
    """
    refs = [r for r, _, _ in records]
    out: list[float] = []
    wall = 0.0
    i = 0
    for b, (_, batch_wall, calls) in enumerate(records):
        ref = statistics.median(refs[max(0, b - 1): b + 2])
        out += [x / ref for x in lat[i: i + calls]]
        wall += batch_wall * 1e9 / ref
        i += calls
    return out, wall


def run_workload(w: W.Workload, seed: int, seconds: float, trace: bool):
    rng = np.random.default_rng(seed)
    batches = w.batches(rng)
    batch = next(batches)
    first = batch[0]
    # Fresh interpreters first, so their peak memory never overlaps ours.
    samples = [] if trace else [fresh_setup(w, first) for _ in range(w.setup_repeats - 1)]
    ds, setup_s, first_out, setup_parts = timed_setup(w, first, split=trace)
    samples.append(setup_s)
    rss_after_setup = peak_rss_mb()

    loop = Loop(ds, w, batches, batch[1:])
    loop.judge(first, first_out)
    plain = lambda x: checked_call(ds, w, x)
    report = {"samples": {}}

    if not trace:
        lat, _, wall = loop.run(0, plain, w.prefix_calls)
        rss = peak_rss_mb()
        more, _, more_wall = loop.run(seconds - wall, plain)
        lat += more
        wall += more_wall
        lat_ref, wall_ref = in_reference_units(lat, loop.records)
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "latency_ref_p50": (p50(lat_ref), "ref"),
            "latency_ref_p90": (p90(lat_ref), "ref"),
            "calls_per_ref": (len(lat_ref) / wall_ref, "1/ref"),
            "peak_rss_mb": (rss, "MB"),
        }
        report["samples"] = {"setup_s": len(samples), "latency": len(lat),
                             "reference": len(loop.records)}
        report["wall_clock"] = {
            "reference_ms_p50": p50([r for r, _, _ in loop.records]) / 1e6,
            "latency_ms_p50": p50(lat) / 1e6,
            "latency_ms_p90": p90(lat) / 1e6,
            "calls_per_s": len(lat) / wall,
        }
        if w.items_per_call > 1:
            item = "rows" if w.kind == "sweep" else "circles"
            report["wall_clock"][f"{item}_per_s"] = len(lat) * w.items_per_call / wall
        return metrics, loop, report

    # Traced half first: its prefix then starts right after set-up, on the
    # same seeded inputs in every run.
    tracer = Tracer()
    lat_traced, branches, wall_traced = loop.run(
        seconds / 2, lambda x: traced_request(ds, w, x, tracer), w.prefix_calls
    )
    lat_plain, _, wall_plain = loop.run(seconds / 2, plain)
    metrics = {k: (v, "s") for k, v in setup_parts.items()}
    metrics.update(layer_metrics(w, tracer, branches))
    calls = len(lat_plain) + len(lat_traced)
    growth = (peak_rss_mb() - rss_after_setup) / calls if w.kind == "sweep" else 0.0
    metrics["sweep.rss_growth_mb_per_chunk"] = (growth, "MB")
    metrics["trace.overhead_ratio"] = (
        (len(lat_traced) / wall_traced) / (len(lat_plain) / wall_plain), "ratio"
    )
    metrics["trace.requests"] = (len(lat_traced), "count")
    tracer.write(OUT / f"spans-{w.name}-seed{seed}.jsonl")
    report["samples"] = {"traced_requests": len(lat_traced), "untraced_calls": len(lat_plain)}
    return metrics, loop, report


def layer_metrics(w: W.Workload, tracer: Tracer, branches: list[str]) -> dict:
    """Per-layer medians from the spans, and branch counts over the first
    ``prefix_calls`` traced requests (a seeded prefix, so counts are exact)."""
    m = {}
    by_request: dict[int, dict[str, int]] = {}
    for req, name, _, t0, t1 in tracer.spans:
        if name in ("solver.construct_witnesses", "census.triangle_census",
                    "solver.verify_witness_set"):
            by_request.setdefault(req, {})[name] = t1 - t0
    case_machine = [
        d["solver.construct_witnesses"] - d["census.triangle_census"]
        - d["solver.verify_witness_set"]
        for d in by_request.values() if "solver.verify_witness_set" in d
    ]
    for name in SOLVER_SPANS:
        ns = case_machine if name == "solver.case_machine" else tracer.durations(name)
        m[f"{name}.us_p50"] = (p50(ns) / 1e3, "us")
    for name in SWEEP_SPANS + ("oracle.hamiltonian_spectrum",):
        m[f"{name}.ms_p50"] = (p50(tracer.durations(name)) / 1e6, "ms")

    construct = tracer.durations("solver.construct_witnesses")
    per_branch: dict[str, list[int]] = {}
    for b, ns in zip(branches, construct):
        per_branch.setdefault(b, []).append(ns)
    counts: dict[str, int] = {}
    if w.kind == "solver":
        for b in branches[: w.prefix_calls]:
            counts[b] = counts.get(b, 0) + 1
    for b in BRANCHES + ("other",):
        key = "solver.branch." + b.replace("/", ".")
        m[key + ".count"] = (counts.get(b, 0), "count")
        if b != "other":
            m[key + ".us_p50"] = (p50(per_branch.get(b, [])) / 1e3, "us")
    m["solver.fallback.count"] = (counts.get("fallback", 0), "count")
    m["solver.refused.count"] = (counts.get("refused", 0), "count")
    attempts = sum(counts.values()) - counts.get("refused", 0)
    m["solver.case_machine_hit_ratio"] = (
        (attempts - counts.get("fallback", 0)) / attempts if attempts else 0.0, "ratio"
    )
    return m


# -- reporting ---------------------------------------------------------------

def machine_facts(detail: bool = False) -> dict:
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }
    if detail:
        try:
            with open("/proc/cpuinfo") as f:
                facts["cpu"] = next(
                    (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                    platform.processor(),
                )
        except OSError:
            facts["cpu"] = platform.processor()
    return facts


def single(args) -> None:
    w = W.WORKLOADS[args.workload]
    facts = machine_facts()
    metrics, loop, report = run_workload(w, args.seed, args.seconds, bool(args.trace))
    print(f"# workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# machine {json.dumps(facts)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"# samples {json.dumps(report['samples'])}")
    if "wall_clock" in report:
        print(f"# wall clock {json.dumps(report['wall_clock'])}")
    if loop.branches:
        print(f"# branches {json.dumps(dict(sorted(loop.branches.items())))}")
    print(f"# fail_ratio {len(loop.failures) / loop.attempted} "
          f"({len(loop.failures)} of {loop.attempted})")
    for problem in loop.failures[:5]:
        print(f"# FAIL {problem}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args) -> None:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {"machine": machine_facts(detail=True), "seed": args.seed,
               "seconds": args.seconds, "limits": __doc__.split("Limits: ", 1)[1].strip(),
               "workloads": {}}
    for wl in spec["workloads"]:
        entry = {"why": wl["why"]}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            entry["trace" if trace else "end_to_end"] = json.loads(lines[-1])
        results["workloads"][wl["name"]] = entry
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"# wrote {path}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(W.WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, write BENCH_<tag>.json")
    p.add_argument("--tag", default="local")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    require_sources()
    if args.setup_probe:
        setup_probe()
    elif args.all:
        run_all(args)
    elif args.workload:
        single(args)
    else:
        p.error("give --workload or --all")


if __name__ == "__main__":
    main()

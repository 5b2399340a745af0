"""End-to-end and per-layer benchmark of `mnhd.analyze`.

Each call under test is `analyze(g)` followed by
`json.dumps(report.to_dict(), indent=2)`, which is what
`mnhd analyze --format json` does.  The load is a closed loop: one caller in
one process analyzes one graph at a time, with BLAS pinned to one thread.
A pass analyzes every graph of the workload once, each under a fresh seeded
vertex relabeling (see workloads.py for the workloads and why each exists).
Passes repeat until --seconds have elapsed.

    python3 perfbench/run.py --workload bipartite-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck     # fast check of the benchmark itself
    python3 perfbench/run.py --write-pins    # regenerate pins.json from this code

With --trace 0 the run reports the end-to-end metrics:

    setup_s      median of cold set-ups (import mnhd, build the graphs), each
                 in a fresh interpreter (setup_probe.py), one before each
                 pass and at least SETUP_PROBES
    pass_s       median time of one pass
    largest_s    median time of the workload's largest graph
    peak_rss_mb  peak resident memory of this process

The three times are scaled to a reference machine speed by a speedometer
that samples the host's speed through each untraced pass and around each
set-up (calibrate.py), so that the host's speed drifting during and between
runs does not read as a change of the program.  The unscaled wall medians
are printed too, on a `wall` line.

With --trace 1 passes alternate untraced and traced, and the run reports per
pass (median over traced passes) the self time and call counts of the layer
functions named in tracer.TARGETS, wrapped from outside the library.  Every
`_s` layer metric is self time, in unscaled seconds: span duration minus
what child spans cover.  No speed samples are taken during traced passes.
`trace.overhead_frac` is traced over untraced scaled pass_s, minus one.

Every report is checked outside the timed region against the pinned outcome
of its graph (pins.json) and its spectrum against numpy's `eigvalsh` of the
same Laplacian.  A call that raises or fails a check counts as failed; the
last stdout line gives `attempted` and `failed`, and `failed_frac` is printed
above it.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
PINS = BENCH_DIR / "pins.json"

SETUP_PROBES = 7
PROBE_SAMPLING_S = 0.1  # speed samples taken just before and after a set-up
# Spectrum cross-check: each eigenvalue, expanded by multiplicity, within
# SPECTRUM_TOL * max(1, |lambda|) of numpy's eigvalsh.
SPECTRUM_TOL = 1e-8

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "largest_s": "s",
                    "peak_rss_mb": "MB"}

PER_LAYER = (
    "spectral.jacobi_eigendecompose_s",
    "spectral.minimal_polynomial_s",
    "spectral.minimal_polynomial_calls",
    "spectral.exact_eigensystem_s",
    "spectral.exact_eigensystem_calls",
    "spectral.lagrange_projector_s",
    "spectral.lagrange_projector_calls",
    "spectral.closed_form_projectors_s",
    "spectral.classify_spectrum_s",
    "quadratic.matmul_calls",
    "quadratic.matmul_s",
    "quadratic.reduce_calls",
    "quadratic.reduce_s",
    "heat.delta_set_calls",
    "heat.delta_set_s",
    "heat.h_terms_exact_calls",
    "heat.heat_stack_s",
    "certify.certificate_bipartite_s",
    "certify.delta_sign_analysis_s",
    "certify.numeric_check_s",
    "certify.analyze_self_s",
    "certify.to_dict_s",
    "graphs.laplacian_calls",
    "graphs.facts_s",
    "spectral.minimal_polynomial_calls_per_graph",
    "spectral.exact_eigensystem_calls_per_graph",
)
OVERHEAD = "trace.overhead_frac"


# ---------------------------------------------------------------------------
# correctness


def outcome(report: dict) -> dict:
    """The fields of a JSON report that do not depend on vertex labels.

    Left out, and why:
      spectrum[].value      float; the spectrum cross-check covers it
      float class deltas    the numeric delta table's floats vary in the
                            last digits
      checks[].witness      text for humans, with rounded floats
      numeric.minDiff       float that varies in the last digits
      numeric.worstPair     names a vertex pair, so it follows the labeling
      numeric.worstT        near-ties between pairs move it with the labeling
    """
    return {
        "graph": report["graph"],
        "spectrum": [[e["multiplicity"], e["exact"]] for e in report["spectrum"]],
        "vanDamCase": report["vanDamCase"],
        "classes": [
            {**{k: v for k, v in row.items() if k != "deltas"},
             "deltas": {k: v for k, v in row["deltas"].items()
                        if isinstance(v, dict)}}
            for row in report["classes"]],
        "certificate": {
            "method": report["certificate"]["method"],
            "verdict": report["certificate"]["verdict"],
            "reason": report["certificate"]["reason"],
            "checks": [[c["name"], c["pass"]]
                       for c in report["certificate"]["checks"]]},
        "numeric": {k: report["numeric"][k] for k in ("tolerance", "verdict")},
    }


def _quad_float(q: dict) -> float:
    return float(Fraction(q["a"])) + float(Fraction(q["b"])) * q["m"] ** 0.5


def spectrum_errors(report: dict, edges, n: int) -> list[str]:
    """Compare the report's spectrum, and its exact values where given, with
    eigvalsh of a Laplacian built here from the edge list."""
    L = np.zeros((n, n))
    for u, v in edges:
        L[u, v] = L[v, u] = -1.0
    L[np.diag_indices(n)] = -L.sum(axis=1)
    reference = np.linalg.eigvalsh(L)
    expanded, errors = [], []
    for e in report["spectrum"]:
        expanded += [e["value"]] * e["multiplicity"]
        if e["exact"] is not None and abs(_quad_float(e["exact"]) - e["value"]) \
                > SPECTRUM_TOL * max(1.0, abs(e["value"])):
            errors.append(f"exact eigenvalue {e['exact']} != {e['value']}")
    if len(expanded) != n:
        return errors + [f"multiplicities sum to {len(expanded)}, n = {n}"]
    worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(expanded, reference))
    if worst > SPECTRUM_TOL:
        errors.append(f"spectrum off eigvalsh by {worst:.3g} (relative)")
    return errors


def report_errors(text: str, g, pin: dict) -> list[str]:
    report = json.loads(text)
    errors = spectrum_errors(report, g.edges, g.n)
    got = outcome(report)
    errors += [f"{key} differs from pin" for key in pin if got.get(key) != pin[key]]
    return errors


# ---------------------------------------------------------------------------
# running


def probe_setup(workload: str, speed: calibrate.Speedometer) -> float:
    """One cold set-up in a fresh interpreter, in seconds at reference speed."""
    speed.sample_for(PROBE_SAMPLING_S)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True)
    end = time.perf_counter()
    speed.sample_for(PROBE_SAMPLING_S)
    return speed.scaled(start, end, float(done.stdout.strip().splitlines()[-1]))


class Timing(NamedTuple):
    start: float  # perf_counter times around the call
    end: float
    busy: float  # wall seconds of the call, less speed sampling inside it


class Runner:
    """Analyzes graphs, times each call and checks every report."""

    def __init__(self, mnhd, pins: dict[str, dict], speed: calibrate.Speedometer):
        self.mnhd = mnhd
        self.pins = pins
        self.speed = speed
        self.attempted = 0
        self.failed = 0

    def call(self, name: str, g) -> Timing:
        """Analyze and serialize g once, and check the report."""
        self.attempted += 1
        sampling = self.speed.spent
        start = time.perf_counter()
        try:
            text = json.dumps(self.mnhd.analyze(g).to_dict(), indent=2)
        except Exception as exc:  # any failure of the code under test counts
            text, errors = None, [f"raised {type(exc).__name__}: {exc}"]
        end = time.perf_counter()
        timing = Timing(start, end, end - start - (self.speed.spent - sampling))
        if text is not None:
            try:
                errors = report_errors(text, g, self.pins[name])
            except (KeyError, TypeError, ValueError) as exc:
                errors = [f"report does not have the expected form: {exc!r}"]
        if errors:
            self._fail(name, errors)
        return timing

    def _fail(self, name: str, errors: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {name}: {'; '.join(errors)}", file=sys.stderr)

    def run_pass(self, graphs: dict) -> dict[str, Timing]:
        gc.collect()
        return {name: self.call(name, g) for name, g in graphs.items()}


def layer_metrics(spans, missing: set[str]) -> dict[str, float | None]:
    from tracer import self_times

    stats = self_times(spans)
    graphs_analyzed = stats.get("certify.analyze", (0.0, 0))[1]
    out = {}
    for metric in PER_LAYER:
        for suffix in ("_calls_per_graph", "_calls", "_self_s", "_s"):
            if metric.endswith(suffix):
                span = metric[:-len(suffix)]
                break
        total, count = stats.get(span, (0.0, 0))
        if span in missing:
            out[metric] = None
        elif suffix == "_calls_per_graph":
            out[metric] = count / graphs_analyzed if graphs_analyzed else None
        else:
            out[metric] = count if suffix == "_calls" else total
    return out


def median_or_none(values: list) -> float | None:
    return None if None in values else statistics.median(values)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, one caller, one graph at a time",
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import mnhd
    import workloads
    from tracer import Tracer

    canonical = workloads.build_workload(workload)
    pins = json.loads(PINS.read_text())[workload]
    if set(pins) != set(canonical):
        raise SystemExit(f"pins.json and workload {workload} name different graphs")
    speed = calibrate.Speedometer()
    speed.sample()  # warm the calibration chunk
    runner = Runner(mnhd, pins, speed)
    relabel = workloads.Relabeler(seed, canonical)
    largest = max(canonical, key=lambda name: canonical[name].n)
    smallest = min(canonical, key=lambda name: canonical[name].n)
    runner.call(smallest, canonical[smallest])  # warm lazy imports, untimed

    untraced, traced, layers = [], [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    setups = []
    while not untraced or (trace and not traced) or time.perf_counter() < deadline:
        if not trace:  # a probe before each pass samples the whole run
            setups.append(probe_setup(workload, speed))
        graphs = {name: relabel.fresh(name, g) for name, g in canonical.items()}
        if trace and len(untraced) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.run_pass(graphs))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.spans, tracer.missing))
        else:
            with speed:
                untraced.append(runner.run_pass(graphs))

    def seconds_of(t: Timing, scaled: bool) -> float:
        return speed.scaled(*t) if scaled else t.busy

    def pass_s(passes, scaled=True):
        return statistics.median(sum(seconds_of(t, scaled) for t in p.values())
                                 for p in passes)

    def largest_s(scaled=True):
        return statistics.median(seconds_of(p[largest], scaled) for p in untraced)

    if trace:
        metrics = {m: (median_or_none([layer[m] for layer in layers]),
                       "ratio" if "per_graph" in m else
                       "s" if m.endswith("_s") else "count")
                   for m in PER_LAYER}
        metrics[OVERHEAD] = (pass_s(traced) / pass_s(untraced) - 1.0, "ratio")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [probe_setup(workload, speed)
                   for _ in range(SETUP_PROBES - len(setups))]
        values = {"setup_s": statistics.median(setups), "pass_s": pass_s(untraced),
                  "largest_s": largest_s(), "peak_rss_mb": rss_mb}
        metrics = {m: (values[m], unit) for m, unit in END_TO_END_UNITS.items()}

    print("env " + json.dumps(environment()))
    print(f"workload {workload}: {len(canonical)} graphs, largest {largest} "
          f"(n={canonical[largest].n}), {len(untraced)} untraced and "
          f"{len(traced)} traced passes")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(f"wall pass_s = {pass_s(untraced, False)} s, largest_s = "
          f"{largest_s(False)} s (unscaled); {len(speed.speeds)} speed samples")
    print(f"metric failed_frac = {runner.failed / runner.attempted} ratio "
          f"({runner.failed} of {runner.attempted} calls)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# ---------------------------------------------------------------------------
# pins and self-check


def write_pins() -> None:
    import mnhd
    import workloads

    pins = {}
    for workload in workloads.WORKLOADS:
        pins[workload] = {}
        for name, g in workloads.build_workload(workload).items():
            report = json.loads(json.dumps(mnhd.analyze(g).to_dict()))
            errors = spectrum_errors(report, g.edges, g.n)
            if errors:
                raise SystemExit(f"{name}: {errors}")
            pins[workload][name] = outcome(report)
    lines = [f"  {json.dumps(workload)}: {{\n" + ",\n".join(
        f"    {json.dumps(name)}: {json.dumps(pin, sort_keys=True)}"
        for name, pin in sorted(graphs.items())) + "\n  }"
        for workload, graphs in pins.items()]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def selfcheck() -> list[str]:
    """Run the smallest graph of each workload through the checks, and test
    that the checks and the tracer's arithmetic catch what they should."""
    import mnhd
    import workloads
    from tracer import Tracer, self_times

    problems = []
    pins = json.loads(PINS.read_text())
    for workload in workloads.WORKLOADS:
        canonical = workloads.build_workload(workload)
        name = min(canonical, key=lambda k: canonical[k].n)
        g = canonical[name]
        relabel = workloads.Relabeler(7, canonical)
        variants = [g] + [relabel.fresh(name, g) for _ in range(3)]
        if len({h.edges for h in variants}) != len(variants):
            problems.append(f"{name}: a relabeling repeated a labeled graph")
        degrees = sorted(g.degree(u) for u in range(g.n))
        for h in variants:
            if (h.n, h.m, sorted(h.degree(u) for u in range(h.n))) != \
                    (g.n, g.m, degrees):
                problems.append(f"{name}: relabeling changed the graph")
            text = json.dumps(mnhd.analyze(h).to_dict(), indent=2)
            problems += [f"{name}: {e}" for e in
                         report_errors(text, h, pins[workload][name])]
        report = json.loads(text)
        report["spectrum"][-1]["value"] += 1e-6
        if not spectrum_errors(report, h.edges, h.n):
            problems.append("spectrum cross-check missed a shifted eigenvalue")
        report["certificate"]["verdict"] = "SignCheckFailed"
        if outcome(report) == pins[workload][name]:
            problems.append("outcome pin missed a changed verdict")

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()  # outer 0..5, inner 1..2 and 3..4
    if self_times(tracer.spans) != {"outer": (3.0, 1), "inner": (2.0, 2)}:
        problems.append(f"self time arithmetic: {self_times(tracer.spans)}")

    import mnhd.certify
    import mnhd.spectral

    original = mnhd.spectral.minimal_polynomial
    tracer = Tracer()
    tracer.install({"spectral.minimal_polynomial":
                    ("mnhd.spectral", "minimal_polynomial"),
                    "spectral.gone": ("mnhd.spectral", "no_such_function")})
    wrapped_both = (mnhd.certify.minimal_polynomial is not original
                    and mnhd.spectral.minimal_polynomial is not original)
    tracer.uninstall()
    if not wrapped_both or mnhd.certify.minimal_polynomial is not original:
        problems.append("tracer did not wrap and restore every namespace")
    if tracer.missing != {"spectral.gone"}:
        problems.append(f"tracer missing set {tracer.missing}")
    if layer_metrics([], {"spectral.jacobi_eigendecompose"})[
            "spectral.jacobi_eigendecompose_s"] is not None:
        problems.append("a missing layer does not report null")

    speed = calibrate.Speedometer()  # speed 1 up to t = 14, then 2
    speed.stamps = [float(t) for t in range(30)]
    speed.speeds = [1.0 if t < 15 else 2.0 for t in range(30)]
    inside, nearest = speed.scaled(0.0, 29.0, 2.0), speed.scaled(1.0, 1.0, 24.0)
    if (inside, nearest) != (3.0, 33.0):  # nearest 24 samples: 15 ones, 9 twos
        problems.append(f"speed scaling arithmetic: {inside}, {nearest}")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("bipartite-ladder",
                                          "template-nonbipartite",
                                          "numeric-route"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--write-pins", action="store_true")
    args = p.parse_args()

    if not (SRC / "mnhd" / "__init__.py").is_file():
        print(f"no mnhd sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.write_pins:
        write_pins()
        return 0
    if args.selfcheck:
        problems = selfcheck()
        for problem in problems:
            print(f"selfcheck: {problem}", file=sys.stderr)
        print("selfcheck " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.workload is None:
        p.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of toeplab: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload check-grid --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see perfbench/README.md).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 9  # fresh processes per run whose set-up time is measured
SETUP_FIRST = 3  # of them before the timed passes; the rest between and after
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Metrics of the result line, each with a bound in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with the others but kept out of the result line: check-grid's
# check costs form clusters (one per N * d and property), and under host
# contention its median and tail jump from one cluster to the next.
LATENCY = (
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
)


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads: two threads on two vCPUs time wake-ups."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import toeplab from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import toeplab
        import toeplab.serialize
        import toeplab.suite
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import toeplab from {src}: {exc}") from None
    if Path(toeplab.__file__).resolve().parent != src / "toeplab":
        raise SystemExit(f"perfbench: toeplab imported from {toeplab.__file__}, not from {src}")
    return toeplab


def environment() -> str:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(cdll, symbol):
                fn = getattr(cdll, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = str(fn())
                break
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, blas threads {threads}, "
            f"nproc {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})")


class HostSpeed:
    """How fast the host runs a fixed kernel while a pass runs.

    On a shared host the same code runs up to 1.7 times slower in some
    stretches than in others, and a stretch can outlast a whole run.  A
    ``SIGALRM`` timer runs this benchmark's own short kernel every
    ``INTERVAL_S`` of a pass, and once more after it.  Python runs the
    handler at the next bytecode boundary, so during a long C call the
    samples wait for it to return.  Each sample stands for the stretch of the
    pass since the previous one; ``timed`` converts every stretch to the
    reference speed (``REFERENCE_S`` over the sample's kernel time) and adds
    them up, which gives the pass's time on the reference host at its
    typical speed.
    """

    INTERVAL_S = 0.02
    # Median kernel time on the baseline host (2 vCPU Xeon at 2.1 GHz, one
    # BLAS thread), so that run_s reads close to that host's wall time.
    REFERENCE_S = 2.8e-4
    _TERMS = {n: complex(0.5 * n, 1.0) for n in range(-3, 4)}

    def __init__(self):
        import numpy as np  # after pin_blas_threads

        self._matrix = np.full((48, 48), 0.01 + 0.01j)
        self._last = 0.0  # end of the previous sample
        self._stretches: list[tuple[float, float]] = []  # (stretch before a sample, kernel time)

    def sample(self, *_) -> None:
        """Laurent-polynomial products in Python, then small complex matrix products."""
        t0 = time.perf_counter()
        for _ in range(10):
            out: dict[int, complex] = {}
            for a, x in self._TERMS.items():
                for b, y in self._TERMS.items():
                    out[a + b] = out.get(a + b, 0j) + x * y
        for _ in range(4):
            self._matrix @ self._matrix
        t1 = time.perf_counter()
        self._stretches.append((t0 - self._last, t1 - t0))
        self._last = t1

    def timed(self, call, *args, start: float | None = None):
        """(result, wall time, time at the reference speed) of ``call(*args)``.

        ``start`` is when the timed stretch began, if before this call.
        """
        self._stretches.clear()
        previous = signal.signal(signal.SIGALRM, self.sample)
        t0 = self._last = time.perf_counter() if start is None else start
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            result = call(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            self.sample()
        at_reference = sum(stretch * self.REFERENCE_S / kernel for stretch, kernel in self._stretches)
        return result, wall, at_reference


def measure_setup(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes (import, inputs, warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Tally:
    """Outcome counts and each check's fastest latency over a run's passes.

    Passes are folded in as they finish, so memory does not grow with the
    number of passes.
    """

    def __init__(self, known_defects: dict[str, str]):
        self.known_defects = known_defects
        self.fastest_ms: list[float] = []
        self.passes = 0
        self.outcomes: Counter[str] = Counter()
        self.defects: Counter[str] = Counter()
        self.unexpected = 0

    def add(self, checks) -> None:
        lat = [c.latency_s * 1e3 for c in checks if c.latency_s is not None]
        if len(lat) == len(self.fastest_ms):
            self.fastest_ms = [min(a, b) for a, b in zip(self.fastest_ms, lat)]
        elif len(lat) > len(self.fastest_ms):  # first pass, or earlier ones raised early
            self.fastest_ms = lat
        self.passes += 1
        for c in checks:
            self.outcomes[c.outcome] += 1
            if c.defect is not None:
                self.defects[c.defect] += 1
            elif c.outcome in ("raised", "wrong"):
                self.unexpected += 1

    def latency(self) -> tuple[float, float, str]:
        """check_p50_ms, check_tail_ms and a note on how they were taken.

        The tail is the highest percentile with ten values beyond it; with
        fewer than 11 checks per pass (suite: nine criteria) the slowest
        check stands in.
        """
        ms = self.fastest_ms
        if len(ms) >= 11:
            value, pct = tail(ms)
            note = f"p{pct:.2f} of {len(ms)} checks"
        else:
            value, note = max(ms), f"slowest of {len(ms)} checks"
        return statistics.median(ms), value, f"{note}, each the fastest of {self.passes} passes"

    def counts(self) -> dict:
        attempted = sum(self.outcomes.values())
        failed = self.outcomes["raised"] + self.outcomes["wrong"]
        return {"correct": self.unexpected == 0, "attempted": attempted, "failed": failed}

    def lines(self) -> list[str]:
        attempted = sum(self.outcomes.values())
        raised, wrong = self.outcomes["raised"], self.outcomes["wrong"]
        out = [
            f"rate error_rate = {raised / attempted:.6g} ({raised} of {attempted} attempted checks raised)",
            f"rate wrong_verdict_rate = {wrong / attempted:.6g} ({wrong} of {attempted} verdicts "
            f"disagree with the exact reference; {self.outcomes['unjudged']} not judged)",
        ]
        for name, text in self.known_defects.items():
            out.append(f"known defect {name}: {self.defects[name]} checks ({text})")
        out.append(f"unexpected failures: {self.unexpected}")
        return out


def run_passes(run_pass, state, seconds: float, tally: Tally, between=None) -> tuple[list[float], list[float]]:
    """Wall and scaled times (``HostSpeed``) of passes repeated while the next fits in ``seconds``.

    At least one pass runs.  ``between`` is called after each pass, outside its timing.
    """
    speed = HostSpeed()
    walls, scaled = [], []
    start = time.perf_counter()
    while True:
        checks, wall, at_reference = speed.timed(run_pass, state)
        walls.append(wall)
        scaled.append(at_reference)
        tally.add(checks)
        if between is not None:
            between()
        used = time.perf_counter() - start
        if used + statistics.median(walls) > seconds:
            return walls, scaled


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"a tail needs at least 11 samples, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def set_up(args):
    """Import the program, make the workload's inputs from the seed, one warm-up call."""
    toeplab = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](toeplab, ROOT)
    state = workload.prepare(args.seed)
    workload.warm_up(state)
    return workload, state


def result_line(counts: dict, metrics: dict) -> str:
    return json.dumps({**counts, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("check-grid", "symbol-corpus", "suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    if args.setup_only:
        # numpy is imported here, inside the timed set-up that began at _T0
        _, _, at_reference = HostSpeed().timed(set_up, args, start=_T0)
        print(repr(at_reference))
        return 0
    workload, state = set_up(args)
    from workloads import KNOWN_DEFECTS

    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}", flush=True)
    print(f"env: {environment()}", flush=True)
    tally = Tally(KNOWN_DEFECTS)
    if args.trace:
        return traced_run(workload, state, args, tally)

    # Set-up samples are spread over the run rather than taken back to back.
    setup = measure_setup(args, SETUP_FIRST)

    def between():
        if len(setup) < SETUP_SAMPLES:
            setup.extend(measure_setup(args, 1))

    walls, scaled = run_passes(workload.run_pass, state, args.seconds, tally, between)
    setup.extend(measure_setup(args, SETUP_SAMPLES - len(setup)))
    p50, tail_ms, note = tally.latency()
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(scaled),
        "check_p50_ms": p50,
        "check_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes spread over the run, "
                   f"at the reference host speed",
        "run_s": f"median of {len(walls)} passes at the reference host speed; wall time "
                 f"fastest {min(walls)!r} s, median {statistics.median(walls)!r} s",
        "check_p50_ms": "median over checks of each check's fastest timing",
        "check_tail_ms": note,
        "peak_rss_mb": "peak resident set of this process",
    }
    for name, unit in END_TO_END + LATENCY:
        print(f"metric {name} = {values[name]!r} {unit} ({notes[name]})")
    print("\n".join(tally.lines()))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(result_line(tally.counts(), metrics))
    return 0


def traced_run(workload, state, args, tally: Tally) -> int:
    """Untraced passes for half the time, then traced passes for the other half."""
    from tracing import LAYERS, Tracer, metric_specs

    half = args.seconds / 2
    walls, scaled = run_passes(workload.run_pass, state, half, tally)
    with Tracer() as tracer:

        def traced_pass(s):
            tracer.mark_pass()
            return workload.run_pass(s)

        traced_walls, traced_scaled = run_passes(traced_pass, state, half, tally)
    per_pass = [tracer.pass_metrics(k) for k in range(len(traced_walls))]
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_file)

    values = {}
    for name, _ in metric_specs():
        if name == "trace.overhead_s":
            continue
        series = [m[name] for m in per_pass]
        # counts must repeat exactly between passes; times are medians
        values[name] = statistics.median(series) if name.endswith("self_s") else series[0]
        if not name.endswith("self_s") and any(x != series[0] for x in series):
            print(f"warning: {name} differs between passes: {series}")
    values["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(scaled)

    print(f"untraced run_s {statistics.median(scaled)!r} s, median of {len(walls)} passes; "
          f"traced {statistics.median(traced_scaled)!r} s, median of {len(traced_walls)} passes "
          f"(both at the reference host speed)")
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        share = values[f"{layer}.self_s"] / total if total else 0.0
        print(f"layer {layer}: self {values[f'{layer}.self_s']:.6f} s per pass, "
              f"{100 * share:.1f}% of traced self time")
    print(f"spans: {len(tracer.fn)} written to {spans_file.relative_to(ROOT)}")
    print("\n".join(tally.lines()))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_specs()}
    print(result_line(tally.counts(), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of toeplab calls, installed from outside the package.

A ``Tracer`` wraps each function in ``TARGETS`` and records one span per call:
the function, its start and end, whether it raised, and the span of the
wrapped call that was running when it started (its parent).  Installation
replaces every binding of a target, because ``from .toeplitz import truncate``
copies the function into the importing module:

* module globals of every loaded ``toeplab`` module, the package included;
* class attributes, for methods and classmethods;
* module-level tuples that hold targets (``suite.ALL_CRITERIA``), so that
  ``run_suite`` calls the wrappers and its identity test still matches.

Leaving the ``with`` block puts every original object back.  Untraced runs
never build a ``Tracer``, so they run the program exactly as shipped.

A few counts are computed from array shapes while tracing, never from time,
so they repeat exactly between runs with the same inputs:
``toeplitz.matmul.gflop`` (8 real flop per complex multiply-add),
``toeplitz.truncate.mbytes`` and ``reducing.projector.mbytes`` (bytes of the
dense arrays built).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module under toeplab, qualified name) of every timed function, by layer.
TARGETS = (
    ("toeplitz", "truncate"),
    ("toeplitz", "ToeplitzTruncation.__matmul__"),
    ("toeplitz", "commutator_report"),
    ("toeplitz", "conjugation_identity_check"),
    ("reducing", "reducing_projectors"),
    ("reducing", "verify_reducing"),
    ("reducing", "projection_intertwine_check"),
    ("symbols", "ScalarSymbol.__mul__"),
    ("symbols", "ScalarSymbol.__add__"),
    ("symbols", "ScalarSymbol.__rmul__"),
    ("symbols", "MatrixSymbol.__mul__"),
    ("symbols", "MatrixSymbol.__add__"),
    ("symbols", "MatrixSymbol.__rmul__"),
    ("symbols", "MatrixSymbol.from_entries"),
    ("symbols", "MatrixSymbol.entry"),
    ("symbols", "MatrixSymbol.adjoint"),
    ("circulant", "circulant_eigen_symbols"),
    ("circulant", "diagonalize_check"),
    ("circulant", "circulant_from_matrix_symbol"),
    ("circulant", "CirculantSymbol.as_matrix_symbol"),
    ("classify", "scalar_binormal_classify"),
    ("classify", "brown_halmos_normal_test"),
    ("classify", "circulant_binormal_classify"),
    ("classify", "block2_condition_system"),
    ("classify", "special_case_checks"),
    ("dilation", "gamma"),
    ("dilation", "gamma_adjoint"),
    ("dilation", "theorem41_probe"),
    ("serialize", "parse_input"),
    ("serialize", "render_json"),
    ("suite", "criterion_diagonalization"),
    ("suite", "criterion_conjugation_identity"),
    ("suite", "criterion_binormality_transfer"),
    ("suite", "criterion_classifier_agreement"),
    ("suite", "criterion_known_fixtures"),
    ("suite", "criterion_gamma_roundtrip"),
    ("suite", "criterion_condition_system"),
    ("suite", "criterion_reducing_subspaces"),
    ("suite", "criterion_dilation_probe"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))
SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)

COMPUTED = (
    ("toeplitz.matmul.gflop", "GFLOP"),
    ("toeplitz.truncate.mbytes", "MB"),
    ("reducing.projector.mbytes", "MB"),
    ("serialize.render_json.raised", "count"),
)


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count"))
        specs.append((f"{name}.self_s", "s"))
    specs.extend((f"{layer}.self_s", "s") for layer in LAYERS)
    specs.extend(COMPUTED)
    specs.append(("trace.overhead_s", "s"))
    return specs


def _matmul_flop(args, result) -> int:
    if result is NotImplemented:
        return 0
    (m, k), (_, n) = args[0].data.shape, args[1].data.shape
    return 8 * m * k * n


def _truncate_bytes(args, result) -> int:
    return result.data.nbytes


def _projector_bytes(args, result) -> int:
    return sum(p.matrix.nbytes for p in result)


# span name -> (counter index, count function of (args, result))
_COUNTERS = {
    "toeplitz.ToeplitzTruncation.__matmul__": (0, _matmul_flop),
    "toeplitz.truncate": (1, _truncate_bytes),
    "reducing.reducing_projectors": (2, _projector_bytes),
}
_COUNTER_SCALE = (1e9, 1e6, 1e6)  # flop -> GFLOP, bytes -> MB


class Tracer:
    """Context manager that wraps ``TARGETS`` and keeps their spans in memory."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counters = [0, 0, 0]
        self._stack: list[int] = []
        self._marks: list[tuple[int, tuple[int, ...]]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "toeplab" or name.startswith("toeplab."))]
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for fid, (module_name, qualname) in enumerate(TARGETS):
            module = sys.modules[f"toeplab.{module_name}"]
            counter = _COUNTERS.get(SPAN_NAMES[fid])
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(fid, raw.__func__, counter)))
                else:
                    self._set(cls, attr, self._wrap(fid, raw, counter))
            else:
                fn = module.__dict__[qualname]
                wrapped[id(fn)] = (fn, self._wrap(fid, fn, counter))

        def swap(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for module in modules:
            for name, value in list(vars(module).items()):
                if swap(value) is not value:
                    self._set(module, name, swap(value))
                elif isinstance(value, tuple) and any(swap(v) is not v for v in value):
                    self._set(module, name, tuple(swap(v) for v in value))

    def _uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, fid: int, fn, counter):
        stack = self._stack
        fns, parents, starts, ends, raised = self.fn, self.parent, self.start, self.end, self.raised
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                counters[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    # -- passes and aggregation ----------------------------------------------

    def mark_pass(self) -> None:
        """Start a new pass: later spans and counts belong to it."""
        self._marks.append((len(self.fn), tuple(self.counters)))

    def pass_metrics(self, k: int) -> dict[str, float]:
        """Per-layer metrics of pass ``k`` (calls, self time, computed counts)."""
        lo, counts_lo = self._marks[k]
        if k + 1 < len(self._marks):
            hi, counts_hi = self._marks[k + 1]
        else:
            hi, counts_hi = len(self.fn), tuple(self.counters)
        # Slicing copies, so the arrays can still grow after this call.
        fn = np.frombuffer(self.fn[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        raised = np.frombuffer(self.raised[lo:hi], dtype=np.int8)
        nested = parent >= lo
        covered = np.bincount(parent[nested] - lo, weights=dur[nested], minlength=hi - lo)
        self_time = dur - covered
        calls = np.bincount(fn, minlength=len(TARGETS))
        self_s = np.bincount(fn, weights=self_time, minlength=len(TARGETS))

        out: dict[str, float] = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for fid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[fid])
            out[f"{name}.self_s"] = float(self_s[fid])
            layer_s[TARGETS[fid][0]] += float(self_s[fid])
        for layer, seconds in layer_s.items():
            out[f"{layer}.self_s"] = seconds
        shape_counts = [name for name, _ in COMPUTED[:len(_COUNTER_SCALE)]]
        for name, lo_count, hi_count, scale in zip(shape_counts, counts_lo, counts_hi, _COUNTER_SCALE):
            out[name] = (hi_count - lo_count) / scale
        render = SPAN_NAMES.index("serialize.render_json")
        out["serialize.render_json.raised"] = int(np.count_nonzero(raised[fn == render]))
        return out

    def write(self, path: Path) -> None:
        """Save every span (arrays indexed by span) as a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_s=np.frombuffer(self.start, dtype=np.float64) - origin,
            end_s=np.frombuffer(self.end, dtype=np.float64) - origin,
            raised=np.frombuffer(self.raised, dtype=np.int8),
            pass_first_span=np.array([lo for lo, _ in self._marks], dtype=np.int64),
        )

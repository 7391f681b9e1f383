"""The three benchmark workloads: seeded inputs, exact references, one timed pass.

Every input is generated here from the run's seed; nothing comes from
``toeplab.suite``'s generators, so editing the suite corpus cannot change
``check-grid`` or ``symbol-corpus``.  Functions of the program are looked up
on the ``toeplab`` package at call time, so a traced run sees its wrappers.

A pass returns one ``Check`` per verdict call.  A failed check is either an
instance of a known defect (``KNOWN_DEFECTS``), which is counted and reported
but expected, or unexpected, which makes the run incorrect.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OK, UNJUDGED, WRONG, RAISED = "ok", "unjudged", "wrong", "raised"

# Failures the program is known to produce today.  They stay in the counts
# (``failed``, ``error_rate``, ``wrong_verdict_rate``) and disappear from them
# only when the program is fixed.
KNOWN_DEFECTS = {
    "scale-tolerance": "true identity judged 'violated' by the absolute tolerance, norm at rounding level",
    "render-bool": "render_json raises TypeError on the numpy bool in the suite report",
}

RESIDUAL_TOL = 1e-10

# A window norm at most ROUNDING * m**p, with m = sum_k ||Phi_k||_2 >= ||T(Phi)||
# and p the number of factors in each term of the commutator, is rounding
# error of the products, not a violation.  On the check-grid symbols the
# scale-tolerance defect gives norms of at most about 1e-17 * m**p, and true
# violations at least about 1e-4 * m**p.
ROUNDING = 1e-12
FACTORS = {"normal": 2, "quasinormal": 3, "binormal": 4}


@dataclass
class Check:
    latency_s: float | None  # None: the check has no latency sample
    outcome: str  # ok | unjudged | wrong | raised
    defect: str | None = None  # the known defect a failed check is an instance of


def _timed(call, *args):
    """(latency, result, exception) of one call; a raise is returned, not thrown."""
    t0 = time.perf_counter()
    try:
        result = call(*args)
    except Exception as exc:  # a raised verdict call is a failed check, not a crash
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


# ---------------------------------------------------------------------------
# coefficient generators (Laurent polynomials as {index: complex})


def _coeff(rng) -> complex:
    """Modulus in [0.25, 1], uniform phase."""
    r = 0.25 + 0.75 * rng.random()
    return complex(r * np.exp(2j * np.pi * rng.random()))


def _width(rng, max_bandwidth: int = 3) -> int:
    return int(rng.integers(1, max_bandwidth + 1))


def generic_coeffs(rng) -> dict[int, complex]:
    """Support on both sides of 0: neither analytic, coanalytic nor normal."""
    w = _width(rng)
    idx = {-int(rng.integers(1, w + 1)), int(rng.integers(1, w + 1))}
    extra = rng.choice(np.arange(-w, w + 1), size=int(rng.integers(0, 2 * w)), replace=False)
    idx.update(int(n) for n in extra)
    return {n: _coeff(rng) for n in sorted(idx)}


def analytic_coeffs(rng) -> dict[int, complex]:
    """At least two terms of index >= 0, so the modulus is not constant."""
    w = _width(rng)
    idx = rng.choice(np.arange(0, w + 1), size=int(rng.integers(2, w + 2)), replace=False)
    return {int(n): _coeff(rng) for n in sorted(idx)}


def real_coeffs(rng) -> dict[int, complex]:
    """Real-valued on the circle and not constant: c_{-n} = conj(c_n)."""
    w = _width(rng)
    out = {0: complex(2 * rng.random() - 1)}
    for n in range(1, w + 1):
        if n == w or rng.random() < 0.7:
            c = _coeff(rng)
            out[n], out[-n] = c, c.conjugate()
    return out


def affine(f: dict[int, complex], alpha: complex, beta: complex) -> dict[int, complex]:
    """alpha * f + beta."""
    out = {n: alpha * c for n, c in f.items()}
    out[0] = out.get(0, 0j) + beta
    return out


def scaled(coeffs: dict[int, complex], s: float) -> dict[int, complex]:
    return {n: s * c for n, c in coeffs.items()}


def circulant_rows(rng, n: int, kind: str) -> list[dict[int, complex]]:
    """Rows of an n x n circulant: generic, or alpha_j * f + beta_j over one real f."""
    if kind == "generic":
        return [generic_coeffs(rng) for _ in range(n)]
    f = real_coeffs(rng)
    return [affine(f, _coeff(rng), _coeff(rng)) for _ in range(n)]


def circulant_block_coeffs(rows: list[dict[int, complex]]) -> dict[int, np.ndarray]:
    """Matrix coefficients of circ(rows): entry (i, j) is rows[(j - i) mod n]."""
    n = len(rows)
    support = sorted({k for row in rows for k in row})
    return {
        k: np.array([[rows[(j - i) % n].get(k, 0j) for j in range(n)] for i in range(n)])
        for k in support
    }


def _pair(c: complex) -> list[float]:
    return [c.real, c.imag]


def scalar_json(coeffs: dict[int, complex]) -> dict:
    return {"dim": 1, "coeffs": {str(n): [[_pair(c)]] for n, c in coeffs.items()}}


def matrix_json(grid: list[list[dict[int, complex]]]) -> dict:
    d = len(grid)
    support = sorted({n for row in grid for entry in row for n in entry})
    return {
        "dim": d,
        "coeffs": {
            str(n): [[_pair(grid[i][j].get(n, 0j)) for j in range(d)] for i in range(d)]
            for n in support
        },
    }


# ---------------------------------------------------------------------------
# check-grid


class CheckGrid:
    """commutator_report over block dim d x order N x property.

    Per d, one circulant with generic rows and one with commuting-normal rows
    alpha_j * f + beta_j, each scaled by s drawn log-uniformly in [1, 100].
    The same symbols are used at every N, so only the dependence on N shows.
    """

    name = "check-grid"
    DIMS = (1, 4, 8)
    ORDERS = (64, 128, 256)
    PROPERTIES = ("normal", "quasinormal", "binormal")
    KINDS = ("generic", "commuting-normal")

    def __init__(self, toeplab, root: Path):
        self.tl = toeplab

    def prepare(self, seed: int) -> list[dict]:
        tl = self.tl
        rng = np.random.default_rng([seed, 1])
        symbols = []
        for d in self.DIMS:
            for kind in self.KINDS:
                s = float(10 ** rng.uniform(0.0, 2.0))
                rows = [scaled(r, s) for r in circulant_rows(rng, d, kind)]
                circ = tl.CirculantSymbol([tl.ScalarSymbol(r) for r in rows])
                # Exact references, from the coefficient-level classifiers.
                normal = all(
                    tl.brown_halmos_normal_test(lam).verdict == "normal"
                    for lam in tl.circulant_eigen_symbols(circ).lambdas
                )
                binormal = tl.circulant_binormal_classify(circ).aggregate == "binormal"
                blocks = circulant_block_coeffs(rows)
                symbols.append({
                    "symbol": tl.MatrixSymbol(d, blocks),
                    "norm_bound": sum(float(np.linalg.norm(c, 2)) for c in blocks.values()),
                    # quasinormal has no exact reference for generic symbols
                    "holds": {
                        "normal": normal,
                        "quasinormal": True if kind == "commuting-normal" else None,
                        "binormal": binormal,
                    },
                })
        return symbols

    def warm_up(self, symbols) -> None:
        self.tl.commutator_report(symbols[0]["symbol"], "normal", self.ORDERS[0])

    def run_pass(self, symbols) -> list[Check]:
        return [
            self._check(sym, order, prop)
            for sym in symbols for order in self.ORDERS for prop in self.PROPERTIES
        ]

    def _check(self, sym, order: int, prop: str) -> Check:
        lat, rep, exc = _timed(self.tl.commutator_report, sym["symbol"], prop, order)
        if exc is not None:
            return Check(lat, RAISED)
        return judge_window(self.tl, rep, sym["holds"][prop], sym["norm_bound"], lat)


def judge_window(toeplab, rep, holds: bool | None, norm_bound: float, latency: float | None) -> Check:
    """Compare a commutator report with the reference ``holds``.

    A wrong verdict is the known scale-tolerance defect only by its
    signature: the identity holds, the norm exceeds the report's own
    tolerance, and it is no larger than rounding error for a symbol of
    norm ``norm_bound``.  Any other wrong verdict is unexpected.
    """
    if holds is None:
        return Check(latency, UNJUDGED)
    if (rep.verdict == toeplab.toeplitz.VERDICT_CLEAN) == holds:
        return Check(latency, OK)
    rounding = ROUNDING * norm_bound ** FACTORS[rep.property]
    scale_defect = (holds and rep.verdict == toeplab.toeplitz.VERDICT_VIOLATED
                    and rep.tolerance < rep.window_norm <= rounding)
    return Check(latency, WRONG, "scale-tolerance" if scale_defect else None)


# ---------------------------------------------------------------------------
# symbol-corpus


class SymbolCorpus:
    """Thousands of coefficient-level checks on JSON inputs; no truncation.

    Scalar inputs go parse_input -> scalar_binormal_classify and
    brown_halmos_normal_test -> render_json.  Circulant inputs go
    parse_input -> circulant_binormal_classify -> diagonalize_check ->
    render_json.  Matrix inputs go parse_input -> gamma -> gamma_adjoint ->
    diagonalize_check of the dilation -> render_json.  Every reference below
    follows from how the input was built.
    """

    name = "symbol-corpus"
    SCALARS_PER_KIND = 200
    CIRCULANTS_PER_SIZE = 100  # half generic rows, half commuting-normal rows
    CIRCULANT_SIZES = (2, 3, 4, 8)
    MATRICES_PER_DIM = 200
    MATRIX_DIMS = (2, 3)

    def __init__(self, toeplab, root: Path):
        self.tl = toeplab

    def prepare(self, seed: int) -> list[tuple[str, str, dict]]:
        rng = np.random.default_rng([seed, 2])
        items = []
        for _ in range(self.SCALARS_PER_KIND):
            m = int(rng.integers(-3, 4))
            # generic, analytic, coanalytic, monomial, affine-real, constant,
            # each with its (binormal, normal) reference
            for coeffs, binormal, normal in (
                (generic_coeffs(rng), False, False),
                (analytic_coeffs(rng), False, False),
                ({-n: c.conjugate() for n, c in analytic_coeffs(rng).items()}, False, False),
                ({m: _coeff(rng)}, True, m == 0),
                (affine(real_coeffs(rng), _coeff(rng), _coeff(rng)), True, True),
                ({0: _coeff(rng)}, True, True),
            ):
                items.append(("scalar", json.dumps(scalar_json(coeffs)),
                              {"binormal": binormal, "normal": normal}))
        for size in self.CIRCULANT_SIZES:
            for i in range(self.CIRCULANTS_PER_SIZE):
                kind = ("generic", "commuting-normal")[i % 2]
                rows = circulant_rows(rng, size, kind)
                obj = {"circulant": size, "row": [scalar_json(r) for r in rows]}
                items.append(("circulant", json.dumps(obj), {"binormal": kind == "commuting-normal"}))
        for d in self.MATRIX_DIMS:
            for _ in range(self.MATRICES_PER_DIM):
                grid = [[generic_coeffs(rng) for _ in range(d)] for _ in range(d)]
                items.append(("matrix", json.dumps(matrix_json(grid)), {}))
        return items

    def warm_up(self, items) -> None:
        self._chain(items[0][0], items[0][1])

    def _chain(self, form: str, text: str) -> str:
        """The timed path of one input, ending in its rendered report."""
        tl = self.tl
        sym = tl.serialize.parse_input(json.loads(text))
        if form == "scalar":
            phi = sym.entry(0, 0)
            report = {
                "binormal": tl.scalar_binormal_classify(phi).to_json(),
                "normal": tl.brown_halmos_normal_test(phi).to_json(),
            }
        elif form == "circulant":
            report = {
                "binormal": tl.circulant_binormal_classify(sym).to_json(),
                "diagonalize_residual": tl.diagonalize_check(sym),
            }
        else:
            dilated = tl.gamma(sym).circulant
            back = tl.gamma_adjoint(dilated)
            report = {
                "roundtrip_diff": back.max_coeff_diff((sym.dim * sym.dim) * sym),
                "diagonalize_residual": tl.diagonalize_check(dilated),
            }
        return tl.serialize.render_json(report)

    def run_pass(self, items) -> list[Check]:
        checks = []
        for form, text, ref in items:
            lat, out, exc = _timed(self._chain, form, text)
            if exc is not None:
                checks.append(Check(lat, RAISED))
                continue
            got = json.loads(out)
            if form == "scalar":
                good = (got["binormal"]["verdict"] == ("binormal" if ref["binormal"] else "not_binormal")
                        and got["normal"]["verdict"] == ("normal" if ref["normal"] else "not_normal"))
            elif form == "circulant":
                good = (got["binormal"]["aggregate"] == ("binormal" if ref["binormal"] else "not_binormal")
                        and got["diagonalize_residual"] <= RESIDUAL_TOL)
            else:
                # gamma_adjoint(gamma(phi)) is exactly n^2 * phi, coefficient by coefficient
                good = got["roundtrip_diff"] == 0.0 and got["diagonalize_residual"] <= RESIDUAL_TOL
            checks.append(Check(lat, OK if good else WRONG))
        return checks


# ---------------------------------------------------------------------------
# suite


class Suite:
    """run_suite with the committed Theorem 4.1 reference, then render_json.

    A check is one criterion; its latency is the criterion's own elapsed
    time from the suite report.  Each criterion must pass, and criterion 9
    must have compared its gap data with the reference file.  Rendering the
    report is one more attempted check, with no latency sample.
    """

    name = "suite"
    REFERENCE = "reference/theorem41_gaps.json"

    def __init__(self, toeplab, root: Path):
        self.tl = toeplab
        self.reference = root / self.REFERENCE

    def prepare(self, seed: int) -> int:
        if not self.reference.is_file():
            raise FileNotFoundError(self.reference)
        return seed

    def warm_up(self, seed) -> None:
        tl = self.tl
        tl.commutator_report(tl.ScalarSymbol.monomial(1), "binormal", 64)

    def run_pass(self, seed) -> list[Check]:
        tl = self.tl
        lat, result, exc = _timed(lambda: tl.suite.run_suite(seed, reference_path=str(self.reference)))
        if exc is not None:
            return [Check(lat, RAISED)]
        checks = []
        for r in result.results:
            good = r.passed and (r.cid != 9 or r.details.get("reference_matches") is True)
            checks.append(Check(r.elapsed, OK if good else WRONG))
        _, out, exc = _timed(lambda: tl.serialize.render_json(result.to_json()))
        if exc is None:
            checks.append(Check(None, OK if json.loads(out)["passed"] == result.passed else WRONG))
        else:
            known = isinstance(exc, TypeError) and "cannot render bool" in str(exc)
            checks.append(Check(None, RAISED, "render-bool" if known else None))
        return checks


WORKLOADS = {w.name: w for w in (CheckGrid, SymbolCorpus, Suite)}

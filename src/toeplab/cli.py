"""Command-line entry point: parse symbol files, dispatch checks, emit reports.

One subcommand per claim family.  Reports are JSON on stdout or at ``--out``;
``check`` additionally writes a CSV convergence table next to ``--out``.
Verdicts are data, not failures: exit status is 0 for a completed run,
1 for acceptance-suite failures, 2 for unusable input, 3 for a truncation
order that leaves the requested product no exact window (``check`` only: the
order is at most the product's margin, see ``toeplitz.commutator_matrix``).
``probe-t41`` reads whole sections and ``reduce`` reads the symbol's
coefficients with each lag weighted by its count in the section (see
``reducing.verify_reducing``); both take exactly one order >= 1, and a
list of orders, which only ``check`` takes, exits 2.  ``suite``
compares criterion 9's gap data with the checkout's
``reference/theorem41_gaps.json``; without that file criterion 9 fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .circulant import (
    CirculantSymbol,
    circulant_eigen_symbols,
    circulant_from_matrix_symbol,
    diagonalize_check,
)
from .classify import brown_halmos_normal_test, circulant_binormal_classify, scalar_binormal_classify
from .dilation import gamma, gamma_adjoint, theorem41_probe
from .reducing import reducing_projectors, verify_reducing
from .serialize import (
    SymbolFormatError,
    circulant_to_json,
    convergence_csv,
    file_digest,
    load_input,
    render_json,
    scalar_to_json,
)
from .suite import ACCEPTANCE_SEED, run_suite
from .symbols import MatrixSymbol, ScalarSymbol
from .toeplitz import DEFAULT_ORDER, DEFAULT_TOLERANCE, PROPERTIES, WindowError, commutator_report

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_WINDOW = 3

# criterion 9's committed gap data, at the root of the checkout that holds src/toeplab
REFERENCE_PATH = Path(__file__).resolve().parents[2] / "reference" / "theorem41_gaps.json"


@dataclass
class JobSpec:
    command: str
    input_path: str | None
    property: str | None
    orders: list[int]
    tolerance: float
    seed: int
    out: str | None


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid order list {text!r}") from None
    if not orders or any(n < 1 for n in orders):
        raise argparse.ArgumentTypeError(f"orders must be positive integers, got {text!r}")
    return orders


def _parse_order(text: str) -> list[int]:
    orders = _parse_orders(text)
    if len(orders) != 1:
        raise argparse.ArgumentTypeError(f"expected one truncation order, got {text!r}")
    return orders


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    return JobSpec(
        command=args.command,
        input_path=getattr(args, "input", None),
        property=getattr(args, "property", None),
        orders=getattr(args, "order", None) or [DEFAULT_ORDER],
        tolerance=getattr(args, "tolerance", DEFAULT_TOLERANCE),
        seed=getattr(args, "seed", ACCEPTANCE_SEED),
        out=getattr(args, "out", None),
    )


def _meta(job: JobSpec) -> dict:
    return {
        "tool": "toeplab",
        "version": __version__,
        "command": job.command,
        "input": job.input_path,
        "input_digest": file_digest(job.input_path) if job.input_path else None,
        "orders": job.orders,
        "tolerance": job.tolerance,
        "seed": job.seed,
    }


def _write_report(report: dict, out: str | None) -> None:
    text = render_json(report) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _as_circulant(parsed: MatrixSymbol | CirculantSymbol) -> CirculantSymbol:
    if isinstance(parsed, CirculantSymbol):
        return parsed
    return circulant_from_matrix_symbol(parsed)


def cmd_diagonalize(job: JobSpec) -> int:
    circ = _as_circulant(load_input(job.input_path))
    lam = circulant_eigen_symbols(circ)
    report = {
        "meta": _meta(job),
        "n": circ.n,
        "eigen_symbols": [scalar_to_json(x) for x in lam.lambdas],
        "max_residual": diagonalize_check(circ),
        "sample_count": 17,
    }
    _write_report(report, job.out)
    return EXIT_OK


def cmd_check(job: JobSpec) -> int:
    parsed = load_input(job.input_path)
    if isinstance(parsed, CirculantSymbol):
        symbol: MatrixSymbol | ScalarSymbol = parsed.as_matrix_symbol()
    elif parsed.dim == 1:
        symbol = parsed.entry(0, 0)
    else:
        symbol = parsed
    if job.property == "f-selfadjoint" and not isinstance(symbol, ScalarSymbol):
        raise SymbolFormatError("the f-selfadjoint check applies to scalar symbols only")
    reports = [commutator_report(symbol, job.property, n, job.tolerance) for n in job.orders]
    payload = {
        "meta": _meta(job),
        "property": job.property,
        "reports": [r.to_json() for r in reports],
    }
    _write_report(payload, job.out)
    if job.out:
        p = Path(job.out)
        csv_path = p.with_suffix(".csv") if p.suffix else Path(str(p) + ".csv")
        csv_path.write_text(convergence_csv(reports), encoding="utf-8")
    return EXIT_OK


def cmd_classify(job: JobSpec) -> int:
    parsed = load_input(job.input_path)
    if isinstance(parsed, MatrixSymbol) and parsed.dim == 1:
        phi = parsed.entry(0, 0)
        payload = {
            "meta": _meta(job),
            "kind": "scalar",
            "binormal": scalar_binormal_classify(phi).to_json(),
            "normal": brown_halmos_normal_test(phi).to_json(),
        }
    else:
        circ = _as_circulant(parsed)
        payload = {
            "meta": _meta(job),
            "kind": "circulant",
            **circulant_binormal_classify(circ).to_json(),
        }
    _write_report(payload, job.out)
    return EXIT_OK


def cmd_gamma(job: JobSpec) -> int:
    parsed = load_input(job.input_path)
    sym = parsed.as_matrix_symbol() if isinstance(parsed, CirculantSymbol) else parsed
    image = gamma(sym)
    back = gamma_adjoint(image.circulant)
    payload = {
        "meta": _meta(job),
        "n": sym.dim,
        "dilated": circulant_to_json(image.circulant),
        "roundtrip_max_diff": back.max_coeff_diff((sym.dim * sym.dim) * sym),
    }
    _write_report(payload, job.out)
    return EXIT_OK


def cmd_probe_t41(job: JobSpec) -> int:
    parsed = load_input(job.input_path)
    sym = parsed.as_matrix_symbol() if isinstance(parsed, CirculantSymbol) else parsed
    if sym.dim != 2:
        raise SymbolFormatError(f"probe-t41 requires a 2 x 2 symbol, got dim {sym.dim}")
    rep = theorem41_probe(sym, job.orders[0], job.tolerance)
    payload = {"meta": _meta(job), **rep.to_json()}
    _write_report(payload, job.out)
    return EXIT_OK


def cmd_reduce(job: JobSpec) -> int:
    circ = _as_circulant(load_input(job.input_path))
    order = job.orders[0]
    projectors = reducing_projectors(circ, order)
    sym = circ.as_matrix_symbol()
    reports = [verify_reducing(p, sym, order, job.tolerance) for p in projectors]
    total = sum(p.matrix for p in projectors)
    payload = {
        "meta": _meta(job),
        "n": circ.n,
        "order": order,
        "projectors": [r.to_json() for r in reports],
        "sum_to_identity_residual": float(np.linalg.norm(total - np.eye(order * circ.n))),
    }
    _write_report(payload, job.out)
    return EXIT_OK


def cmd_suite(job: JobSpec) -> int:
    result = run_suite(seed=job.seed, reference_path=str(REFERENCE_PATH))
    for r in result.results:
        sys.stdout.write(r.line() + "\n")
    sys.stdout.write(
        f"suite: {sum(r.passed for r in result.results)} passed, "
        f"{sum(not r.passed for r in result.results)} failed\n"
    )
    if job.out:
        Path(job.out).write_text(render_json(result.to_json()) + "\n", encoding="utf-8")
    return EXIT_OK if result.passed else EXIT_SUITE_FAILURE


_HANDLERS = {
    "diagonalize": cmd_diagonalize,
    "check": cmd_check,
    "classify": cmd_classify,
    "gamma": cmd_gamma,
    "probe-t41": cmd_probe_t41,
    "reduce": cmd_reduce,
    "suite": cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplab",
        description="Finite-section verification of block Toeplitz operator properties",
    )
    parser.add_argument("--version", action="version", version=f"toeplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("--input", required=True, help="symbol or circulant JSON file")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help=f"verdict tolerance (default {DEFAULT_TOLERANCE})")
        p.add_argument("--seed", type=int, default=ACCEPTANCE_SEED,
                       help="seed recorded in reports and used by seeded commands")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("diagonalize", help="eigenvalue symbols and conjugation residual")
    common(p)

    p = sub.add_parser("check", help="window-exact commutator verdicts over truncation orders")
    common(p)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--order", type=_parse_orders, default=None,
                   help=f"comma-separated truncation orders (default {DEFAULT_ORDER})")

    p = sub.add_parser("classify", help="coefficient-level normality/binormality certificates")
    common(p)

    p = sub.add_parser("gamma", help="flatten a matrix symbol into its dilated circulant")
    common(p)

    p = sub.add_parser("probe-t41", help="evidence on the dilation block equivalence claim")
    common(p)
    p.add_argument("--order", type=_parse_order, default=None,
                   help=f"truncation order (default {DEFAULT_ORDER})")

    p = sub.add_parser("reduce", help="build and verify reducing projectors for a circulant")
    common(p)
    p.add_argument("--order", type=_parse_order, default=None,
                   help=f"truncation order (default {DEFAULT_ORDER})")

    p = sub.add_parser("suite", help="run the full acceptance corpus")
    common(p, with_input=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    job = _job_from_args(args)
    handler = _HANDLERS[job.command]
    try:
        return handler(job)
    except WindowError as exc:
        sys.stderr.write(f"toeplab: window error: {exc}\n")
        return EXIT_WINDOW
    except ValueError as exc:
        # includes SymbolFormatError and CirculantPatternError
        sys.stderr.write(f"toeplab: input error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

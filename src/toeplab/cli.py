"""Command-line entry point: parse symbol files, dispatch checks, emit reports.

One subcommand per claim family, each taking only the options it reads:

* ``diagonalize``, ``classify`` and ``gamma``: ``--input`` and ``--out``;
* ``check``: also ``--property`` and ``--tolerance``.  It decides the
  identity for the infinite operator T(Phi), at the product's exact order
  2W + 1 (``toeplitz.exact_order``), and that order is the report's
  ``order``; no order is asked of the user;
* ``probe-t41`` and ``reduce``: also ``--order`` (one order >= 1 of the
  finite section they read, default 64) and ``--tolerance``;
* ``suite``: ``--seed`` and ``--out``; the report at ``--out`` also records
  the ``environment`` (numpy and BLAS versions, BLAS thread variables, CPU
  count) that its timings depend on.

Reports are JSON on stdout or at ``--out``.  The ``--out`` file is opened,
and emptied, before any work starts, as a shell redirection is: an
unwritable ``--out`` costs nothing, and a run that fails leaves it empty.
A report's ``meta`` records the input and its digest, plus ``tolerance``
and ``order`` for the commands that take them.  A tolerance must be finite
and >= 0.
Verdicts are data, not failures: exit status is 0 for a completed run,
1 for acceptance-suite failures, and 2 for unusable input or options
(a product that overflows to a non-finite entry included, with numpy's
overflow warnings silenced so that the refusal is the one message) and for
an ``--out`` that cannot be written.
``probe-t41`` reads whole sections, and refuses with exit 2 an order whose
section would exceed ``toeplitz.CHAIN_BUDGET_BYTES`` (order > 2048).
``diagonalize`` compares U* Phi_n U
with Lambda_n lag by lag (see ``circulant.diagonalize_check``), and
``reduce`` reads the symbol's coefficients with each lag weighted by its
count in the section and the projectors' d x d blocks (see
``reducing.verify_reducing``), so neither builds a section.  ``suite``
compares criterion 9's gap data with the checkout's
``reference/theorem41_gaps.json``; without that file criterion 9 fails.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from typing import TextIO

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
from .reducing import reducing_projectors, resolution_residual, verify_reducing
from .serialize import (
    SymbolFormatError,
    circulant_to_json,
    file_digest,
    load_input,
    render_json,
    scalar_to_json,
)
from .suite import ACCEPTANCE_SEED, run_suite
from .symbols import MatrixSymbol
from .toeplitz import DEFAULT_TOLERANCE, PROPERTIES, commutator_report

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2

# the section order of probe-t41 and reduce when --order is not given
SECTION_ORDER = 64

# the variables that set the BLAS thread count, recorded in suite reports
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_order(text: str) -> int:
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected one truncation order, got {text!r}") from None
    if order < 1:
        raise argparse.ArgumentTypeError(f"the order must be a positive integer, got {text!r}")
    return order


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not 0 <= value < math.inf:  # also false for NaN
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _meta(args: argparse.Namespace) -> dict:
    meta = {
        "tool": "toeplab",
        "version": __version__,
        "command": args.command,
        "input": args.input,
        "input_digest": file_digest(args.input),
    }
    if "tolerance" in args:  # check, probe-t41 and reduce
        meta["tolerance"] = args.tolerance
    if "order" in args:  # probe-t41 and reduce
        meta["order"] = args.order
    return meta


def _write_report(report: dict, out: TextIO | None) -> None:
    (out or sys.stdout).write(render_json(report) + "\n")


def _as_circulant(parsed: MatrixSymbol | CirculantSymbol) -> CirculantSymbol:
    if isinstance(parsed, CirculantSymbol):
        return parsed
    return circulant_from_matrix_symbol(parsed)


def cmd_diagonalize(args: argparse.Namespace) -> int:
    circ = _as_circulant(load_input(args.input))
    lam = circulant_eigen_symbols(circ)
    report = {
        "meta": _meta(args),
        "n": circ.n,
        "eigen_symbols": [scalar_to_json(x) for x in lam.lambdas],
        "max_residual": diagonalize_check(circ),
    }
    _write_report(report, args.report)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    parsed = load_input(args.input)
    symbol = parsed.as_matrix_symbol() if isinstance(parsed, CirculantSymbol) else parsed
    report = commutator_report(symbol, args.property, tolerance=args.tolerance)
    payload = {
        "meta": _meta(args),
        "property": args.property,
        "report": report.to_json(),
    }
    _write_report(payload, args.report)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    parsed = load_input(args.input)
    if isinstance(parsed, MatrixSymbol) and parsed.dim == 1:
        phi = parsed.entry(0, 0)
        payload = {
            "meta": _meta(args),
            "kind": "scalar",
            "binormal": scalar_binormal_classify(phi).to_json(),
            "normal": brown_halmos_normal_test(phi).to_json(),
        }
    else:
        circ = _as_circulant(parsed)
        payload = {
            "meta": _meta(args),
            "kind": "circulant",
            **circulant_binormal_classify(circ).to_json(),
        }
    _write_report(payload, args.report)
    return EXIT_OK


def cmd_gamma(args: argparse.Namespace) -> int:
    parsed = load_input(args.input)
    sym = parsed.as_matrix_symbol() if isinstance(parsed, CirculantSymbol) else parsed
    image = gamma(sym)
    back = gamma_adjoint(image.circulant)
    payload = {
        "meta": _meta(args),
        "n": sym.dim,
        "dilated": circulant_to_json(image.circulant),
        "roundtrip_max_diff": back.max_coeff_diff((sym.dim * sym.dim) * sym),
    }
    _write_report(payload, args.report)
    return EXIT_OK


def cmd_probe_t41(args: argparse.Namespace) -> int:
    parsed = load_input(args.input)
    sym = parsed.as_matrix_symbol() if isinstance(parsed, CirculantSymbol) else parsed
    if sym.dim != 2:
        raise SymbolFormatError(f"probe-t41 requires a 2 x 2 symbol, got dim {sym.dim}")
    rep = theorem41_probe(sym, args.order, args.tolerance)
    payload = {"meta": _meta(args), **rep.to_json()}
    _write_report(payload, args.report)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    circ = _as_circulant(load_input(args.input))
    order = args.order
    projectors = reducing_projectors(circ, order)
    sym = circ.as_matrix_symbol()
    reports = [verify_reducing(p, sym, tolerance=args.tolerance) for p in projectors]
    payload = {
        "meta": _meta(args),
        "n": circ.n,
        "order": order,
        "projectors": [r.to_json() for r in reports],
        "sum_to_identity_residual": resolution_residual(projectors),
    }
    _write_report(payload, args.report)
    return EXIT_OK


def _environment() -> dict:
    """What the suite's timings depend on: numpy, its BLAS, the BLAS thread
    variables as set (null when unset) and the CPU count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
    }


def cmd_suite(args: argparse.Namespace) -> int:
    result = run_suite(seed=args.seed)
    for r in result.results:
        sys.stdout.write(r.line() + "\n")
    sys.stdout.write(
        f"suite: {sum(r.passed for r in result.results)} passed, "
        f"{sum(not r.passed for r in result.results)} failed\n"
    )
    if args.report:
        _write_report({**result.to_json(), "environment": _environment()}, args.report)
    return EXIT_OK if result.passed else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplab",
        description="Finite-section verification of block Toeplitz operator properties",
    )
    parser.add_argument("--version", action="version", version=f"toeplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, tolerance=False, order=False):
        """A subcommand on one input file, with --out, and with --tolerance
        and --order when asked for."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=True, help="symbol or circulant JSON file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if order:
            p.add_argument("--order", type=_parse_order, default=SECTION_ORDER,
                           help=f"truncation order of the section (default {SECTION_ORDER})")
        if tolerance:
            p.add_argument("--tolerance", type=_parse_tolerance, default=DEFAULT_TOLERANCE,
                           help=f"verdict tolerance, finite and >= 0 (default {DEFAULT_TOLERANCE})")
        return p

    command("diagonalize", cmd_diagonalize, "eigenvalue symbols and conjugation residual")
    p = command("check", cmd_check, "commutator verdict for T(Phi), read at its exact order",
                tolerance=True)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    command("classify", cmd_classify, "coefficient-level normality/binormality certificates")
    command("gamma", cmd_gamma, "flatten a matrix symbol into its dilated circulant")
    command("probe-t41", cmd_probe_t41, "evidence on the dilation block equivalence claim",
            tolerance=True, order=True)
    command("reduce", cmd_reduce, "build and verify reducing projectors for a circulant",
            tolerance=True, order=True)
    p = sub.add_parser("suite", help="run the full acceptance corpus")
    p.set_defaults(handler=cmd_suite)
    p.add_argument("--seed", type=int, default=ACCEPTANCE_SEED,
                   help=f"seed of the acceptance corpus (default {ACCEPTANCE_SEED})")
    p.add_argument("--out", help="write the JSON report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the output is opened before any work, so an unwritable one costs nothing;
        # numpy's overflow warnings are off: a non-finite product raises ValueError
        with (open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as args.report,
              np.errstate(over="ignore", invalid="ignore")):
            return args.handler(args)
    except ValueError as exc:
        # includes SymbolFormatError and CirculantPatternError
        sys.stderr.write(f"toeplab: input error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        # load_input turns an unreadable input into SymbolFormatError, so this
        # is an output that cannot be opened
        sys.stderr.write(f"toeplab: cannot write report: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

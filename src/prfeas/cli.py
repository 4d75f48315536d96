"""Command line front end for the feasibility solver.

Three subcommands cover the workflow: ``solve`` runs the solver on a
problem file, ``verify`` re-checks a stored certificate against a problem
file, and ``generate`` writes seeded instances with known certificates.

Problem files, solve reports, and certificates are JSON documents with a
``"schema": 1`` marker.  Exactly one JSON document is written to stdout
per invocation; diagnostics go to stderr.

Exit codes: 0 feasible / verified / generated, 1 dual certificate,
2 epsilon declaration, 3 certificate rejected, 64 usage error,
65 malformed input, 70 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Union

import numpy as np

from .certify import (
    Certificate,
    generate_planted,
    verify_d_solution,
    verify_p_certificate,
)
from .oracle import (
    FiniteLp,
    ProblemInstance,
    Sdp,
    Socp,
    Witness,
    WitnessedColumn,
    strict_int,
    witness_from_json,
    witness_to_json,
)
from .solver import ConfigError, SolveOutcome, SolverConfig, main_algorithm

log = logging.getLogger("prfeas.cli")

EXIT_FEASIBLE = 0
EXIT_DUAL = 1
EXIT_EPSILON = 2
EXIT_REJECTED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class DataError(ValueError):
    """A problem or certificate file violates the documented format."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # replace argparse's sys.exit(2) so usage failures map to exit 64
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# problem file format


def load_problem(data: object) -> ProblemInstance:
    """Build an instance from a parsed problem document.

    Raises
    ------
    DataError
        If the document structure is wrong; value-level validation
        errors propagate from the instance constructors.
    """
    if not isinstance(data, dict):
        raise DataError("problem document must be a JSON object")
    if data.get("schema") != 1:
        raise DataError("problem document must carry \"schema\": 1")
    kind = data.get("type")
    try:
        if kind == "lp":
            m = strict_int(data["m"], "m")
            cols = np.asarray(data["columns"], dtype=float)
            if cols.ndim != 2 or cols.shape[1] != m:
                raise DataError(
                    "\"columns\" must be a list of length-m columns")
            return FiniteLp(cols.T)
        if kind == "sdp":
            m = strict_int(data["m"], "m")
            n = strict_int(data["n"], "n")
            mats = np.asarray(data["matrices"], dtype=float)
            if mats.shape != (m, n, n):
                raise DataError("\"matrices\" must be m matrices of size n*n")
            return Sdp(mats)
        if kind == "socp":
            m = strict_int(data["m"], "m")
            A = np.asarray(data["A"], dtype=float)
            if A.ndim != 2 or A.shape[0] != m:
                raise DataError("\"A\" must be an m-row matrix")
            return Socp(A, data["blocks"])
    except KeyError as exc:
        raise DataError(f"problem document is missing {exc.args[0]!r}") from exc
    except (TypeError, OverflowError) as exc:
        raise DataError(f"problem document has a field of the wrong type: "
                        f"{exc}") from exc
    raise DataError(f"unknown problem type {kind!r}")


def dump_problem(instance: ProblemInstance) -> dict:
    """Inverse of :func:`load_problem` for the built-in instance kinds."""
    if isinstance(instance, FiniteLp):
        return {
            "schema": 1,
            "type": "lp",
            "m": instance.m,
            "columns": instance.columns.T.tolist(),
        }
    if isinstance(instance, Sdp):
        return {
            "schema": 1,
            "type": "sdp",
            "m": instance.m,
            "n": instance.n,
            "matrices": [M.tolist() for M in instance.matrices],
        }
    if isinstance(instance, Socp):
        return {
            "schema": 1,
            "type": "socp",
            "m": instance.m,
            "blocks": list(instance.blocks),
            "A": instance.A.tolist(),
        }
    raise TypeError("only lp/sdp/socp instances have a file encoding")


# ---------------------------------------------------------------------------
# certificate format


def _weight_entry(witness: Union[Witness, WitnessedColumn], x: float) -> dict:
    if isinstance(witness, WitnessedColumn):
        enc = witness_to_json(witness.witness, witness.column)
    else:
        enc = witness_to_json(witness)
    return {"witness": enc, "x": float(x)}


def dump_certificate(cert: Certificate) -> dict:
    if cert.kind == "d":
        return {"schema": 1, "kind": "d",
                "y": [float(t) for t in cert.y]}
    return {"schema": 1, "kind": "p",
            "weights": [_weight_entry(w, x) for w, x in cert.weights]}


def load_certificate(data: object) -> Certificate:
    if not isinstance(data, dict):
        raise DataError("certificate document must be a JSON object")
    if data.get("schema") != 1:
        raise DataError("certificate document must carry \"schema\": 1")
    kind = data.get("kind")
    if kind == "d":
        try:
            y = np.asarray(data.get("y", []), dtype=float)
        except TypeError as exc:
            raise DataError(f"\"y\" must be a vector of numbers: {exc}") \
                from exc
        if y.ndim != 1 or y.size == 0:
            raise DataError("\"y\" must be a nonempty vector")
        return Certificate(kind="d", y=y, weights=None)
    if kind == "p":
        entries = data.get("weights")
        if not isinstance(entries, list) or not entries:
            raise DataError("\"weights\" must be a nonempty list")
        weights = []
        for e in entries:
            try:
                witness, column = witness_from_json(e["witness"])
                x = float(e["x"])
            except (KeyError, TypeError, ValueError, OverflowError,
                    AttributeError) as exc:
                raise DataError(f"malformed weight entry: {exc}") from exc
            if column is not None:
                weights.append((WitnessedColumn(witness, column), x))
            else:
                weights.append((witness, x))
        return Certificate(kind="p", y=None, weights=weights)
    raise DataError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# report format


def solve_report(outcome: SolveOutcome, timing: bool) -> dict:
    weights = None
    if outcome.weights is not None:
        weights = [_weight_entry(w, x) for w, x in outcome.weights]
    return {
        "schema": 1,
        "status": outcome.status,
        "y": None if outcome.y is None else [float(t) for t in outcome.y],
        "weights": weights,
        "epsilon": outcome.epsilon,
        "s_star": outcome.s_star,
        "counters": {
            "bp_calls": outcome.counters.bp_calls,
            "bp_iterations": outcome.counters.bp_iterations,
            "oracle_calls": outcome.counters.oracle_calls,
            "rescalings": outcome.counters.rescalings,
        },
        "verification": None if outcome.verification is None
        else outcome.verification.to_json_dict(),
        "wall_ms": outcome.wall_ms if timing else None,
    }


# ---------------------------------------------------------------------------
# subcommands


def _read_json(path: str) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path: str, doc: dict, indent: int | None) -> None:
    Path(path).write_text(json.dumps(doc, indent=indent) + "\n")


def _emit(doc: dict, indent: int | None) -> None:
    sys.stdout.write(json.dumps(doc, indent=indent) + "\n")


def cmd_solve(args) -> int:
    instance = load_problem(_read_json(args.input))
    config = SolverConfig(
        mu_override=args.mu_override,
        max_rescalings=args.max_rescalings,
    )
    outcome = main_algorithm(instance, epsilon=args.epsilon, config=config)
    log.info("solve finished with status %s", outcome.status)
    if args.certificate:
        cert = None
        if outcome.status == "feasible":
            cert = Certificate(kind="d", y=outcome.y, weights=None)
        elif outcome.status == "dual_certificate":
            cert = Certificate(kind="p", y=None, weights=outcome.weights)
        if cert is None:
            log.warning("no certificate to write for an epsilon declaration")
        else:
            _write_json(args.certificate, dump_certificate(cert),
                        args.json_indent)
    _emit(solve_report(outcome, args.timing), args.json_indent)
    return {
        "feasible": EXIT_FEASIBLE,
        "dual_certificate": EXIT_DUAL,
        "epsilon_declared": EXIT_EPSILON,
    }[outcome.status]


def cmd_verify(args) -> int:
    instance = load_problem(_read_json(args.input))
    cert = load_certificate(_read_json(args.certificate))
    if args.kind is not None and args.kind != cert.kind:
        raise DataError(
            f"certificate is of kind {cert.kind!r}, not {args.kind!r}")
    if cert.kind == "d":
        report = verify_d_solution(instance, cert.y)
    else:
        report = verify_p_certificate(instance, cert.weights)
    _emit(report.to_json_dict(), args.json_indent)
    return EXIT_FEASIBLE if report.accepted else EXIT_REJECTED


def cmd_generate(args) -> int:
    instance, cert = generate_planted(
        args.kind, m=args.m, n=args.n, seed=args.seed, target=args.target)
    problem_doc = dump_problem(instance)
    cert_doc = dump_certificate(cert)
    if args.certificate:
        _write_json(args.certificate, cert_doc, args.json_indent)
    if args.output:
        _write_json(args.output, problem_doc, args.json_indent)
        _emit({
            "schema": 1,
            "written": {
                "problem": args.output,
                "certificate": args.certificate or None,
            },
        }, args.json_indent)
    else:
        _emit(problem_doc, args.json_indent)
    return EXIT_FEASIBLE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    common.add_argument("--json-indent", type=int, default=2,
                        help="indentation of emitted JSON documents")

    parser = _Parser(prog="prfeas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("solve", parents=[common],
                       help="decide feasibility of a problem file")
    p.add_argument("--input", required=True, help="problem JSON file")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--certificate",
                   help="write the certificate JSON here when one exists")
    p.add_argument("--mu-override", type=float, default=None)
    p.add_argument("--max-rescalings", type=int, default=None)
    p.add_argument("--timing", action="store_true",
                   help="report wall clock time (off keeps output "
                        "byte-reproducible)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common],
                       help="re-check a certificate against a problem file")
    p.add_argument("--input", required=True, help="problem JSON file")
    p.add_argument("--certificate", required=True,
                   help="certificate JSON file")
    p.add_argument("--kind", choices=["d", "p"], default=None,
                   help="require the certificate to be of this kind")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", parents=[common],
                       help="write a seeded instance with a known certificate")
    p.add_argument("--kind", required=True, choices=["lp", "sdp", "socp"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", default="feasible_d",
                   choices=["feasible_d", "feasible_p"])
    p.add_argument("--output", help="problem file destination")
    p.add_argument("--certificate", help="certificate file destination")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        _emit({"schema": 1, "error": str(exc)}, None)
        return EXIT_USAGE
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, args.log_level.upper()))
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit({"schema": 1, "error": str(exc)}, args.json_indent)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:
        _emit({"schema": 1, "error": str(exc)}, args.json_indent)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001  last-resort contract
        log.exception("internal error")
        _emit({"schema": 1, "error": f"internal error: {exc}"},
              args.json_indent)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end for the feasibility solver.

Three subcommands cover the workflow: ``solve`` runs the solver on a
problem file, ``verify`` re-checks a stored certificate against a problem
file, and ``generate`` writes seeded instances with known certificates.

Problem files, solve reports, and certificates are JSON documents with a
``"schema": 1`` marker, an integer by the rule of ``m`` and ``n``:
``1.0`` reads as 1, and ``true`` is malformed input.  Exactly one JSON
document is written to stdout per invocation; diagnostics go to stderr.
A solve report's ``wall_ms`` is null unless ``solve --timing`` is given,
when it is the time of the solver call as measured here; the rest of the
report is reproducible.

Input files are read as RFC 8259 JSON in UTF-8 by the compiled parser of
``pydantic-core``.  As with Python's ``json`` module, the extensions
``NaN``, ``Infinity`` and ``-Infinity`` are accepted by the parser (the
loaders then reject non-finite numbers where a field must be finite).
Nesting depth is limited: a file nested too deeply is malformed input
(exit 65).  The cyclic garbage collector is paused while a file is
parsed and loaded: a parsed JSON tree holds no reference cycles, so a
collection then walks every array read so far and frees nothing.
Output is written with Python's ``json`` module, every document
indented by 2.

A certificate's numbers (``y``, each weight's ``x``, a witness vector's
entries and a custom witness's column) and a problem's arrays (an LP's
``columns``, an SDP's ``matrices``, a SOCP's ``A``) pass one check
(:func:`_check_numbers`): a string or a boolean there, which numpy and
``float`` would read as a number, is malformed input, and the error names
the entry, such as ``certificate entry y[1]``.  A problem file's bytes are
screened for them first, and its arrays walked only when the screen
cannot rule them out (:func:`_may_hold_literals`).

Exit codes: 0 feasible / verified / generated, 1 dual certificate,
2 epsilon declaration, 3 certificate rejected, 64 usage error, 65
malformed input or a file that cannot be read or written, 70 internal
error.  A usage error is a ``ConfigError``: a bad command line (also
reported on stderr) or an argument out of range, such as ``--epsilon 2``
or ``generate --m 0``; malformed input is any other ``ValueError``, and
an unreadable or unwritable file an ``OSError``, whose message names
the path.
Everything else exits 70: only built-in oracles run here, so an
``OracleContractViolation`` or ``InvariantViolated`` is a defect.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import logging
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .certify import (
    Certificate,
    generate_planted,
    verify_d_solution,
    verify_p_certificate,
)
from .oracle import (
    ConfigError,
    CustomWitness,
    FiniteLp,
    LpIndex,
    ProblemInstance,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    Witness,
    WitnessedColumn,
    strict_int,
)
from .solver import SolveOutcome, main_algorithm

log = logging.getLogger("prfeas.cli")

EXIT_FEASIBLE = 0
EXIT_DUAL = 1
EXIT_EPSILON = 2
EXIT_REJECTED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    # replace argparse's sys.exit(2) so usage failures map to exit 64
    def error(self, message):
        sys.stderr.write(f"usage error: {message}\n")
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# problem file format


def _check_document(data: object, what: str) -> None:
    """Raise ValueError unless ``data``, a ``what`` document, is a JSON
    object that carries ``"schema": 1``, read as :func:`strict_int` reads
    an integer: ``1.0`` is 1, ``true`` is not."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} document must be a JSON object")
    if isinstance(data.get("schema"), bool) or data.get("schema") != 1:
        raise ValueError(f"{what} document must carry \"schema\": 1")


def _check_numbers(value: object, where: str) -> object:
    """``value``, once no string or boolean is found in it or in its
    nested JSON arrays; else ValueError naming the first, the entry
    ``where`` (``"problem entry columns"``, ``"certificate entry y"``):
    numpy and ``float`` would read either as a number.  Other entries are
    left to the conversion that follows, which rejects them or, for
    ``null``, gives NaN, which the instance or the verifier rejects."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"{where} must be a number, got {json.dumps(value)}")
    # one pass of map(type) clears a row of numbers
    if isinstance(value, list) and not {list, str, bool}.isdisjoint(
            map(type, value)):
        for i, entry in enumerate(value):
            _check_numbers(entry, f"{where}[{i}]")
    return value


def _may_hold_literals(raw: bytes, doc: object) -> bool:
    """False when the bytes ``raw`` of the parsed document ``doc`` hold no
    string but its top-level keys and string values, and no ``true`` or
    ``false``; True when they may.

    A problem document's quotes are those of its keys and its type, about
    10, so a ``find`` loop counts them and stops one past the count the
    parsed document gives.  A number holds no ``t`` or ``f``, and ``true``
    and ``false`` do, so ``find`` looks for them outside the quoted spans.
    An escaped quote, a nested string or ``Infinity`` also gives True,
    which costs only a walk of the arrays (:func:`_check_numbers`).
    """
    if not isinstance(doc, dict):
        return True
    count = 2 * (len(doc) + sum(isinstance(v, str) for v in doc.values()))
    quotes = []
    at = raw.find(b'"')
    while at >= 0 and len(quotes) <= count:
        quotes.append(at)
        at = raw.find(b'"', at + 1)
    if len(quotes) != count:
        return True
    # the spans before, between and after the quoted strings
    spans = zip([0] + [q + 1 for q in quotes[1::2]],
                quotes[::2] + [len(raw)])
    return any(raw.find(b"t", a, b) >= 0 or raw.find(b"f", a, b) >= 0
               for a, b in spans)


def load_problem(data: object, walk: bool = True) -> ProblemInstance:
    """Build an instance from a parsed problem document.

    Its array (``columns``, ``matrices`` or ``A``) is walked for a string
    or a boolean (:func:`_check_numbers`) unless ``walk`` is False, which
    a reader passes when the document's bytes hold neither
    (:func:`_may_hold_literals`).

    Raises
    ------
    ValueError
        If the document structure is wrong, its array holds a string or a
        boolean, or an instance constructor rejects a value.
    """
    _check_document(data, "problem")
    kind = data.get("type")
    if kind not in ("lp", "sdp", "socp"):
        raise ValueError(f"unknown problem type {kind!r}")
    try:
        m = strict_int(data["m"], "m")
        if walk:
            key = {"lp": "columns", "sdp": "matrices", "socp": "A"}[kind]
            _check_numbers(data[key], f"problem entry {key}")
        if kind == "lp":
            cols = np.asarray(data["columns"], dtype=float)
            if cols.ndim != 2 or cols.shape[1] != m:
                raise ValueError(
                    "\"columns\" must be a list of length-m columns")
            return FiniteLp(cols.T)
        if kind == "sdp":
            n = strict_int(data["n"], "n")
            mats = np.asarray(data["matrices"], dtype=float)
            if mats.shape != (m, n, n):
                raise ValueError("\"matrices\" must be m matrices of size n*n")
            return Sdp(mats)
        A = np.asarray(data["A"], dtype=float)
        if A.ndim != 2 or A.shape[0] != m:
            raise ValueError("\"A\" must be an m-row matrix")
        return Socp(A, data["blocks"])
    except KeyError as exc:
        raise ValueError(f"problem document is missing {exc.args[0]!r}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"problem document has a field of the wrong type: "
                         f"{exc}") from exc


def dump_problem(instance: ProblemInstance) -> dict:
    """Inverse of :func:`load_problem` for the built-in instance kinds.

    Writes the data as given, not as stored
    (:func:`prfeas.oracle.in_range`)."""
    if isinstance(instance, FiniteLp):
        kind, fields = "lp", {"columns": instance.as_given().T.tolist()}
    elif isinstance(instance, Sdp):
        kind, fields = "sdp", {"n": instance.n,
                               "matrices": instance.as_given().tolist()}
    elif isinstance(instance, Socp):
        kind, fields = "socp", {"blocks": list(instance.blocks),
                                "A": instance.as_given().tolist()}
    else:
        raise TypeError("only lp/sdp/socp instances have a file encoding")
    return {"schema": 1, "type": kind, "m": instance.m, **fields}


# ---------------------------------------------------------------------------
# certificate format


#: The certificate type name of each vector witness.
VECTOR_WITNESSES = {"sdp_vector": SdpVector, "socp_vector": SocpVector}


def witness_to_json(w: Union[Witness, WitnessedColumn]) -> dict:
    """Encode a witness for a certificate file.

    A custom witness carries its column, as given (``2^exponent`` times
    the column in range), when ``w`` is a :class:`WitnessedColumn`, and
    only its label when ``w`` is bare.  Other witnesses identify their
    column on the instance, so only the witness is written.  A label
    round-trips as its JSON value: a numpy scalar label is written as its
    Python value (``.item()``), and a tuple comes back as a list."""
    witness = w.witness if isinstance(w, WitnessedColumn) else w
    if isinstance(witness, LpIndex):
        return {"type": "lp_index", "i": witness.i}
    for name, cls in VECTOR_WITNESSES.items():
        if isinstance(witness, cls):
            return {"type": name, "v": list(witness.v)}
    if isinstance(witness, CustomWitness):
        label = witness.label
        out = {"type": "custom", "label": label.item()
               if isinstance(label, np.generic) else label}
        if witness is not w:
            out["column"] = np.ldexp(w.column, w.exponent).tolist()
        return out
    raise TypeError(f"unknown witness type {type(witness).__name__}")


def witness_from_json(obj: dict) -> Union[Witness, WitnessedColumn]:
    """Inverse of :func:`witness_to_json`: a bare witness, or a
    :class:`WitnessedColumn` for a custom witness that carries a column.
    A vector ``v`` and a column are walked by :func:`_check_numbers`,
    their entries named ``certificate entry v[i]`` and ``certificate
    entry column[i]``."""
    kind = obj.get("type")
    if kind == "lp_index":
        return LpIndex(obj["i"])
    if kind in VECTOR_WITNESSES:
        v = _check_numbers(obj["v"], "certificate entry v")
        return VECTOR_WITNESSES[kind](tuple(np.array(v, dtype=float).tolist()))
    if kind == "custom":
        witness = CustomWitness(obj.get("label"))
        column = obj.get("column")
        if column is None:
            return witness
        return WitnessedColumn(witness, np.array(
            _check_numbers(column, "certificate entry column"), dtype=float))
    raise ValueError(f"unknown witness type {kind!r}")


def _weight_entry(witness: Union[Witness, WitnessedColumn], x: float) -> dict:
    return {"witness": witness_to_json(witness), "x": float(x)}


def dump_certificate(cert: Certificate) -> dict:
    if cert.kind == "d":
        return {"schema": 1, "kind": "d",
                "y": [float(t) for t in cert.y]}
    return {"schema": 1, "kind": "p",
            "weights": [_weight_entry(w, x) for w, x in cert.weights]}


def load_certificate(data: object) -> Certificate:
    """Decode a parsed certificate document.  Its numbers (``y``, each
    weight's ``x`` and its witness's vector or column) are walked by
    :func:`_check_numbers` before they are converted to floats."""
    _check_document(data, "certificate")
    kind = data.get("kind")
    if kind == "d":
        y = _check_numbers(data.get("y", []), "certificate entry y")
        try:
            return Certificate(kind="d", y=np.array(y, dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"\"y\" must be a vector of numbers: {exc}") \
                from exc
    if kind == "p":
        entries = data.get("weights")
        if not isinstance(entries, list) or not entries:
            raise ValueError("\"weights\" must be a nonempty list")
        try:
            weights = [(witness_from_json(e["witness"]),
                        float(_check_numbers(e["x"], "certificate entry x")))
                       for e in entries]
        except (KeyError, TypeError, OverflowError, AttributeError) as exc:
            raise ValueError(f"malformed weight entry: {exc}") from exc
        return Certificate(kind="p", weights=weights)
    raise ValueError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# report format


def solve_report(outcome: SolveOutcome, wall_ms: float | None) -> dict:
    """The solve report; ``wall_ms`` is the solve's time, or None."""
    weights = None if outcome.weights is None else [
        _weight_entry(w, x) for w, x in outcome.weights]
    return {
        "schema": 1,
        "status": outcome.status,
        "y": None if outcome.y is None else [float(t) for t in outcome.y],
        "weights": weights,
        "epsilon": outcome.epsilon,
        "s_star": outcome.s_star,
        "counters": asdict(outcome.counters),
        "verification": None if outcome.verification is None
        else outcome.verification.to_json_dict(),
        "wall_ms": wall_ms,
    }


# ---------------------------------------------------------------------------
# subcommands


def _read_json(path: str, load: Callable[..., object],
               screen: Callable[[bytes, object], bool] | None = None
               ) -> object:
    """``load`` of the JSON document in the file at ``path``; with a
    ``screen``, ``load(doc, screen(data, doc))`` of the document and the
    file's bytes.

    The cyclic garbage collector is paused while the file is parsed and
    loaded.  Parsing allocates one list per JSON array, and every few
    hundred of them would start a collection that walks the arrays read
    so far; a parsed document holds no reference cycles, so none can free
    anything.  Resumed before ``load``, the collector would walk the whole
    document once more; after it, reference counting alone frees it.
    """
    data = Path(path).read_bytes()
    # deferred: the import costs ~10 MB and ~55 ms, paid only to read a file
    from pydantic_core import from_json
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = from_json(data)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        args = () if screen is None else (screen(data, doc),)
        del data  # so the file's bytes and the loaded arrays never coexist
        return load(doc, *args)
    finally:
        if enabled:
            gc.enable()


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def cmd_solve(args) -> int:
    instance = _read_json(args.input, load_problem, _may_hold_literals)
    start = time.perf_counter()
    outcome = main_algorithm(instance, epsilon=args.epsilon)
    wall_ms = (time.perf_counter() - start) * 1000.0 if args.timing else None
    log.info("solve finished with status %s", outcome.status)
    report = solve_report(outcome, wall_ms)
    if args.certificate:
        # the certificate holds the report's own y or weights
        if outcome.status == "epsilon_declared":
            log.warning("no certificate to write for an epsilon declaration")
        else:
            kind, key = ("d", "y") if outcome.status == "feasible" \
                else ("p", "weights")
            _write_json(args.certificate,
                        {"schema": 1, "kind": kind, key: report[key]})
    _emit(report)
    return {
        "feasible": EXIT_FEASIBLE,
        "dual_certificate": EXIT_DUAL,
        "epsilon_declared": EXIT_EPSILON,
    }[outcome.status]


def cmd_verify(args) -> int:
    instance = _read_json(args.input, load_problem, _may_hold_literals)
    cert = _read_json(args.certificate, load_certificate)
    if cert.kind == "d":
        report = verify_d_solution(instance, cert.y)
    else:
        report = verify_p_certificate(instance, cert.weights)
    _emit(report.to_json_dict())
    return EXIT_FEASIBLE if report.accepted else EXIT_REJECTED


def cmd_generate(args) -> int:
    instance, cert = generate_planted(
        args.kind, m=args.m, n=args.n, seed=args.seed, target=args.target)
    problem_doc = dump_problem(instance)
    cert_doc = dump_certificate(cert)
    if args.certificate:
        _write_json(args.certificate, cert_doc)
    if args.output:
        try:
            _write_json(args.output, problem_doc)
        except OSError:
            # no certificate is left behind without its problem file
            if args.certificate:
                Path(args.certificate).unlink()
            raise
        _emit({
            "schema": 1,
            "written": {
                "problem": args.output,
                "certificate": args.certificate or None,
            },
        })
    else:
        _emit(problem_doc)
    return EXIT_FEASIBLE


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    as it was."""
    common = _Parser(add_help=False)
    common.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])

    parser = _Parser(prog="prfeas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("solve", parents=[common],
                       help="decide feasibility of a problem file")
    p.add_argument("--input", required=True, help="problem JSON file")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--certificate",
                   help="write the certificate JSON here when one exists")
    p.add_argument("--timing", action="store_true",
                   help="report the solve call's wall clock time (off "
                        "keeps output byte-reproducible)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common],
                       help="re-check a certificate against a problem file")
    p.add_argument("--input", required=True, help="problem JSON file")
    p.add_argument("--certificate", required=True,
                   help="certificate JSON file")
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
    try:
        args = build_parser().parse_args(argv)
        # basicConfig installs the stderr handler at the first call only,
        # so the level is set here at every call
        logging.basicConfig(stream=sys.stderr)
        log.setLevel(args.log_level.upper())
        return args.func(args)
    except ConfigError as exc:
        code, error = EXIT_USAGE, str(exc)
    except (ValueError, OSError) as exc:
        code, error = EXIT_DATA, str(exc)
    except Exception as exc:  # noqa: BLE001  last-resort contract
        log.exception("internal error")
        code, error = EXIT_INTERNAL, f"internal error: {exc}"
    _emit({"schema": 1, "error": error})
    return code


if __name__ == "__main__":
    sys.exit(main())

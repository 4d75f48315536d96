"""The three workloads: their inputs, how one request runs, and its checks.

Every request is solved at the CLI default epsilon, one at a time (a
closed loop with one client).  A pass runs each request of the workload
once, in an order drawn from the workload seed.  Checks run after the
pass, through references to prfeas's functions taken at import time, so
they are neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import prfeas.cli
import prfeas.solver
from prfeas.certify import generate_planted, verify_d_solution, \
    verify_p_certificate
from prfeas.cli import dump_problem, load_certificate
from prfeas.oracle import CustomOracle, CustomWitness, FiniteLp, Sdp, Socp, \
    WitnessedColumn

EPSILON = 1e-6

#: Seconds one pass took at the commit that defined the benchmark (2 vCPU,
#: Python 3.11, OpenBLAS, one thread).  The number of passes in a run is
#: ``round(seconds / NOMINAL_PASS_S)``: fixing it, rather than stopping on
#: the clock, keeps the tail percentile's rank the same on every run and
#: on every commit compared.
NOMINAL_PASS_S = {"interior": 0.67, "infeasible": 8.5, "cli": 3.7}

PLANTED_D = ("feasible",)
PLANTED_P = ("dual_certificate", "epsilon_declared")
DECIDED = ("feasible", "dual_certificate")
EXIT_CODES = {"feasible": 0, "dual_certificate": 1, "epsilon_declared": 2}


@dataclass
class Item:
    """One problem of a workload and the statuses its plant allows."""

    name: str
    expect: tuple[str, ...]
    instance: object
    inputs: dict
    path: Path | None = None


@dataclass
class Sample:
    """One timed request: what ran, how long it took, what it returned.

    ``seconds`` is wall time; ``normalized_s`` is the same time at the
    reference speed (see :func:`reference_seconds`).
    """

    item: Item
    op: str
    seconds: float
    normalized_s: float
    value: object = None
    error: str | None = None


@dataclass
class Verdict:
    """Outcome of checking one sample.

    ``category`` is ``ok``, ``raised`` (exception or internal-error exit)
    or ``wrong`` (a result that contradicts the plant or whose artifact
    the re-check rejects).  ``counts`` is compared across passes.
    """

    category: str
    counts: tuple
    oracle_calls: int = 0
    inner_iterations: int = 0
    inner_runs: int = 0
    decided: bool | None = None
    message: str = ""
    key: tuple = ()


# ---------------------------------------------------------------------------
# machine speed

#: Time of :func:`reference_seconds`'s kernel on the machine that defined
#: the benchmark.  Reported times are wall times scaled by this over the
#: kernel's time measured next to each request.
REFERENCE_NOMINAL_S = 2.5e-3

#: Kernel runs this close to a request set its local speed.
REFERENCE_WINDOW_S = 1.0

_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((64, 64))
_REF_VECTOR = _REF_RNG.standard_normal(64)


def reference_seconds() -> float:
    """Time a fixed kernel shaped like the solver's inner loop.

    The machine's speed drifts by tens of percent over seconds (other
    tenants share its cores).  The drift slows this kernel too, so the
    ratio of a request's time to the kernel's time next to it varies
    less between runs than either.  The kernel is a Python loop of small
    matrix-vector products and norms, the mix the solver's hot path runs.
    """
    start = time.perf_counter()
    v = _REF_VECTOR
    for _ in range(400):
        v = _REF_MATRIX @ v
        v = v / np.linalg.norm(v)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# inputs


def rescaled(instance, rng: np.random.Generator):
    """An equivalent instance, scaled by powers of two.

    LP columns, SOCP cone blocks and the whole SDP stack get positive
    power-of-two factors (powers of four for the SDP, so its Cholesky
    factor scales by a power of two).  The solver normalizes every
    column it sees, and power-of-two factors commute exactly with
    floating-point arithmetic, so the solver's path is unchanged bit for
    bit while the input bytes differ.
    """
    if isinstance(instance, FiniteLp):
        k = rng.integers(-2, 3, instance.n)
        return FiniteLp(instance.columns * np.ldexp(1.0, k))
    if isinstance(instance, Sdp):
        return Sdp(instance.matrices * 4.0 ** int(rng.integers(-1, 2)))
    if isinstance(instance, Socp):
        k = rng.integers(-2, 3, len(instance.blocks))
        return Socp(instance.A * np.repeat(np.ldexp(1.0, k), instance.blocks),
                    instance.blocks)
    return instance


def hyperplane_lp(m: int, n: int, seed: int, lift: float) -> FiniteLp:
    """Gaussian columns projected onto ``y_perp``, plus ``lift * y``.

    With ``lift = 0`` every column lies in a hyperplane and a finite dual
    certificate exists (the degenerate LP).  With ``lift = 1e-5`` the
    feasible cone is thinner than epsilon (the thin LP).
    """
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(m)
    y /= np.linalg.norm(y)
    cols = rng.standard_normal((m, n))
    cols -= np.outer(y, y @ cols)
    return FiniteLp(cols + lift * y[:, None])


def semicircle(include_pi: bool) -> CustomOracle:
    """Columns ``(cos t, sin t)`` for t in (0, pi] or (0, pi).

    The same oracle as ``demos/semi_infinite_oracle.py``.
    """

    def in_domain(t):
        return 0.0 < t <= math.pi if include_pi else 0.0 < t < math.pi

    def fn(y):
        y1, y2 = float(y[0]), float(y[1])
        phi = math.atan2(y2, y1)
        candidates = [(phi + math.pi) % (2.0 * math.pi),
                      (phi + 0.5 * math.pi) % (2.0 * math.pi),
                      (phi - 0.5 * math.pi) % (2.0 * math.pi)]
        if include_pi:
            candidates.append(math.pi)
        tol = 1e-14 * (abs(y1) + abs(y2))
        best = None
        for t in candidates:
            if not in_domain(t):
                continue
            val = y1 * math.cos(t) + y2 * math.sin(t)
            if val <= tol and (best is None or val < best[1]):
                best = (t, val)
        if best is None:
            return None
        t = best[0]
        return WitnessedColumn(CustomWitness(t),
                               np.array([math.cos(t), math.sin(t)]))

    return CustomOracle(2, fn)


def _planted(kind, m, n, target, seed):
    name = f"{kind} m={m} n={n} planted-{target[-1]}"
    inputs = {"kind": kind, "m": m, "n": n, "target": target, "seed": seed}
    expect = PLANTED_D if target == "feasible_d" else PLANTED_P
    return name, expect, generate_planted(kind, m, n, seed, target)[0], inputs


def _specs(workload: str, corpus: int):
    """(name, expect, instance, inputs) in the workload's fixed order."""
    seeds = iter(range(100 * corpus, 100 * corpus + 100))
    if workload == "interior":
        # an odd count puts the median inside one request's samples
        # rather than on the gap between two
        return [_planted(k, m, n, "feasible_d", next(seeds))
                for k, m, n in [("lp", 10, 200), ("lp", 30, 2000),
                                ("lp", 60, 5000),
                                ("sdp", 8, 20), ("sdp", 20, 40),
                                ("socp", 20, 200), ("socp", 60, 1000)]]
    if workload == "infeasible":
        out = [_planted(k, m, n, "feasible_p", next(seeds))
               for k, m, n in [("lp", 5, 50), ("lp", 10, 200), ("sdp", 4, 10),
                               ("sdp", 8, 20), ("socp", 5, 40)]]
        s = next(seeds)
        out.append(("lp m=10 n=200 degenerate", PLANTED_P,
                    hyperplane_lp(10, 200, s, 0.0),
                    {"kind": "lp", "m": 10, "n": 200, "target": "degenerate",
                     "seed": s}))
        s = next(seeds)
        out.append(("lp m=10 n=200 thin", ("feasible", "epsilon_declared"),
                    hyperplane_lp(10, 200, s, 1e-5),
                    {"kind": "lp", "m": 10, "n": 200, "target": "thin",
                     "seed": s}))
        out.append(("semicircle closed", ("epsilon_declared",),
                    semicircle(True), {"kind": "custom", "m": 2,
                                       "domain": "(0, pi]"}))
        out.append(("semicircle open", ("feasible", "epsilon_declared"),
                    semicircle(False), {"kind": "custom", "m": 2,
                                        "domain": "(0, pi)"}))
        return out
    if workload == "cli":
        return [_planted(k, m, n, t, next(seeds))
                for k, m, n, t in [("lp", 60, 5000, "feasible_d"),
                                   ("lp", 60, 20000, "feasible_d"),
                                   ("sdp", 20, 40, "feasible_d"),
                                   ("socp", 60, 1000, "feasible_d"),
                                   ("lp", 10, 200, "feasible_p")]]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, corpus: int, seed: int, workdir: Path) -> list[Item]:
    """Generate the workload's inputs; the cli workload writes its files.

    ``corpus`` picks the instances, ``seed`` the power-of-two scalings.
    """
    rng = np.random.default_rng([seed, corpus])
    items = []
    for j, (name, expect, instance, inputs) in enumerate(
            _specs(workload, corpus)):
        instance = rescaled(instance, rng)
        item = Item(name, expect, instance, inputs)
        if workload == "cli":
            item.path = workdir / f"problem{j}.json"
            item.path.write_text(json.dumps(dump_problem(instance)) + "\n")
            item.inputs["bytes"] = item.path.stat().st_size
        items.append(item)
    return items


def warm_up(workload: str, workdir: Path) -> None:
    """Run every code path once on tiny inputs (lazy imports, BLAS)."""
    tiny = [generate_planted(k, 3, 6, 0, t)[0]
            for k in ("lp", "sdp", "socp") for t in ("feasible_d",
                                                      "feasible_p")]
    for instance in tiny + [semicircle(True)]:
        prfeas.solver.main_algorithm(instance, epsilon=1e-2)
    if workload == "cli":
        path = workdir / "warm.json"
        path.write_text(json.dumps(dump_problem(tiny[0])))
        cert = workdir / "warm.cert.json"
        _cli(["solve", "--input", str(path), "--certificate", str(cert),
              "--log-level", "error"])
        _cli(["verify", "--input", str(path), "--certificate", str(cert),
              "--log-level", "error"])


# ---------------------------------------------------------------------------
# one pass


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = prfeas.cli.main(argv)
    return code, buf.getvalue()


def _cert_path(item: Item) -> Path:
    return item.path.with_suffix(".cert.json")


def run_pass(workload: str, items: list[Item], order, tracer=None
             ) -> list[Sample]:
    """Run each item once, in ``order``; time each request alone.

    The reference kernel runs before the first request and after each
    one.  A request's normalized time uses the median of the kernel's
    runs that overlap the request widened by ``REFERENCE_WINDOW_S``, which
    follows the machine's drift but not one disturbed kernel run.
    Solver functions are looked up on their modules at call time, so a
    traced pass goes through the tracer's wrappers.
    """
    samples = []
    spans = []
    refs = []
    clock = time.perf_counter

    def reference():
        refs.append((clock(), reference_seconds()))

    def timed(item, op, call):
        if tracer is not None:
            tracer.request_id = len(samples)
        start = clock()
        try:
            value, error = call(), None
        except Exception as exc:  # noqa: BLE001  counted as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        reference()
        samples.append(Sample(item, op, end - start, 0.0, value, error))
        spans.append((start - REFERENCE_WINDOW_S, end + REFERENCE_WINDOW_S))

    reference()
    for idx in order:
        item = items[idx]
        if workload != "cli":
            instance = item.instance if tracer is None \
                else tracer.traced_instance(item.instance)
            timed(item, "solve", lambda: prfeas.solver.main_algorithm(
                instance, epsilon=EPSILON))
            continue
        cert = _cert_path(item)
        cert.unlink(missing_ok=True)
        timed(item, "solve", lambda: _cli([
            "solve", "--input", str(item.path), "--certificate", str(cert),
            "--log-level", "error"]))
        if cert.exists():
            timed(item, "verify", lambda: _cli([
                "verify", "--input", str(item.path), "--certificate",
                str(cert), "--log-level", "error"]))
    for sample, (lo, hi) in zip(samples, spans):
        local = statistics.median(d for t, d in refs if lo <= t + d and t <= hi)
        sample.normalized_s = sample.seconds * REFERENCE_NOMINAL_S / local
    return samples


# ---------------------------------------------------------------------------
# checks


def _check_declaration(out) -> str:
    certified = (math.sqrt(math.e) / 2.0) ** out.counters.rescalings
    if out.epsilon > EPSILON or certified > out.epsilon * (1.0 + 1e-9):
        return (f"declared epsilon {out.epsilon:.3e} is not certified by "
                f"{out.counters.rescalings} rescalings")
    return ""


def _check_artifact(item: Item, status, y, weights) -> str:
    if status == "feasible":
        report = verify_d_solution(item.instance, np.asarray(y, dtype=float))
    elif status == "dual_certificate":
        report = verify_p_certificate(item.instance, weights)
    else:
        return ""
    return "" if report.accepted else f"re-check rejected the {status} artifact"


def _check_solve(sample: Sample) -> Verdict:
    item, out = sample.item, sample.value
    c = out.counters
    counts = (out.status, c.oracle_calls, c.bp_iterations, c.bp_calls,
              c.rescalings)
    verdict = Verdict("ok", counts, c.oracle_calls, c.bp_iterations,
                      c.bp_calls, out.status in DECIDED)
    if out.status not in item.expect:
        verdict.message = f"status {out.status}, plant allows {item.expect}"
    elif out.status == "epsilon_declared":
        verdict.message = _check_declaration(out)
    else:
        try:
            verdict.message = _check_artifact(item, out.status, out.y,
                                              out.weights)
        except ValueError as exc:
            verdict.message = f"re-check raised {exc}"
    if verdict.message:
        verdict.category = "wrong"
    return verdict


def _parse_stdout(text: str):
    doc = json.loads(text)
    if not isinstance(doc, dict) or not text.endswith("}\n"):
        raise ValueError("stdout is not exactly one JSON object")
    return doc


def _check_cli(sample: Sample) -> Verdict:
    item = sample.item
    code, text = sample.value
    try:
        doc = _parse_stdout(text)
    except ValueError as exc:
        return Verdict("wrong", (sample.op, code), message=str(exc))
    if sample.op == "verify":
        if code == 0 and doc.get("accepted") is True:
            return Verdict("ok", (sample.op, code))
        return Verdict("raised" if code == 70 else "wrong", (sample.op, code),
                       message=f"verify exited {code}: {doc}")
    status = doc.get("status")
    if status is None:
        return Verdict("raised" if code == 70 else "wrong", (sample.op, code),
                       message=f"solve exited {code}: {doc.get('error')}")
    c = doc["counters"]
    counts = (sample.op, code, status, c["oracle_calls"], c["bp_iterations"],
              c["bp_calls"], c["rescalings"])
    verdict = Verdict("ok", counts, c["oracle_calls"], c["bp_iterations"],
                      c["bp_calls"], status in DECIDED)
    cert = _cert_path(item)
    if EXIT_CODES.get(status) != code:
        verdict.message = f"status {status} but exit code {code}"
    elif status not in item.expect:
        verdict.message = f"status {status}, plant allows {item.expect}"
    elif status in DECIDED:
        try:
            parsed = load_certificate(json.loads(cert.read_text()))
            verdict.message = _check_artifact(item, status, parsed.y,
                                              parsed.weights)
        except (OSError, ValueError) as exc:
            verdict.message = f"certificate for {status} unusable: {exc}"
    elif cert.exists():
        verdict.message = "certificate written for an epsilon declaration"
    if verdict.message:
        verdict.category = "wrong"
    return verdict


def check(workload: str, sample: Sample) -> Verdict:
    """Check one sample against its plant and re-verify its artifact."""
    if sample.error is not None:
        verdict = Verdict("raised", ("raised", sample.error),
                          message=sample.error)
    elif workload == "cli":
        verdict = _check_cli(sample)
    else:
        verdict = _check_solve(sample)
    verdict.key = (sample.item.name, sample.op)
    return verdict

"""Acceptance gate: one test per shipped guarantee.

Each test prints exactly one ``ACCEPTANCE <n>: PASS|FAIL`` line directly
to the terminal (bypassing capture) and then asserts, so a plain
``pytest -v`` run shows the verdict for every criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from prfeas.certify import generate_planted, verify_p_certificate
from prfeas.cli import main as cli_main
from prfeas.oracle import (
    CustomOracle,
    FiniteLp,
    LpIndex,
    Sdp,
    Socp,
    query,
)
from prfeas.solver import (
    RescalingState,
    main_algorithm,
    step_alpha,
)
from semicircle import make_semicircle


def verdict(capsys, n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def planted_lp_corpus():
    for seed in range(200):
        m = 2 + seed % 9
        n = m + (seed * 7) % (51 - m)
        inst, _ = generate_planted("lp", m=m, n=n, seed=seed,
                                   target="feasible_d")
        yield seed, m, inst


def traced_corpus(probe, include_banded_custom=False):
    """Instances that exercise rescaling and elimination, observed by the
    probe: one ``(m, steps, eliminations, largest_support)`` per solve.

    The semicircle oracle answers within a tolerance band around zero
    margin, which weakens the per-step growth guarantee by the width of
    the band; it is therefore only included where invariants do not
    depend on exact-margin answers.
    """
    runs = []

    def observed(m, inst, epsilon):
        probe.clear()
        main_algorithm(inst, epsilon=epsilon)
        runs.append((m, probe.steps, probe.eliminations,
                     probe.largest_support))

    for seed in range(40):
        m = 2 + seed % 4
        inst, _ = generate_planted("lp", m=m, n=m + 4 + seed % 9, seed=seed,
                                   target="feasible_p")
        observed(m, inst, 1e-2)
    observed(2, FiniteLp(np.array([[1.0, -1.0], [1e-3, 1e-3]])), 1e-6)
    if include_banded_custom:
        observed(2, CustomOracle(2, make_semicircle(True)), 1e-2)
    return runs


def test_criterion_01_iteration_bound_on_planted_corpus(capsys, solve_probe):
    # every inner run halts within ceil(3 m (m+1)^2) iterations and the
    # 200-instance corpus solves, verified, in under a minute
    start = time.perf_counter()
    ok = True
    detail = ""
    for seed, m, inst in planted_lp_corpus():
        solve_probe.clear()
        out = main_algorithm(inst, epsilon=1e-2)
        bound = math.ceil(3 * m * (m + 1) ** 2)
        worst = max(solve_probe.runs, default=0)
        if out.status != "feasible" or not out.verification.accepted \
                or worst > bound:
            ok = False
            detail = f"seed {seed}: status {out.status}, {worst}/{bound}"
            break
    elapsed = time.perf_counter() - start
    if ok and elapsed >= 60.0:
        ok, detail = False, f"corpus took {elapsed:.1f}s"
    verdict(capsys, 1, ok, detail or f"200 instances in {elapsed:.1f}s")


def test_criterion_02_potential_growth(capsys, solve_probe):
    ok = True
    detail = ""
    steps = 0
    for m, potential_steps, _, _ in traced_corpus(solve_probe):
        for before, after in potential_steps:
            steps += 1
            if after - before < 1.0 - 1e-9:
                ok = False
                detail = f"step gained {after - before:.3e}"
    if steps == 0:
        ok, detail = False, "no steps recorded"
    verdict(capsys, 2, ok, detail or f"{steps} steps, each gained >= 1")


def test_criterion_03_elimination_invariants(capsys, solve_probe):
    ok = True
    detail = ""
    count = 0
    for m, _, eliminations, largest in traced_corpus(
            solve_probe, include_banded_custom=True):
        if largest > m + 1:
            ok, detail = False, f"support of {largest} terms, m={m}"
        for rec in eliminations:
            count += 1
            if rec.size > m + 1 or rec.min_weight < -1e-12 \
                    or rec.weight_sum_error > 1e-10 \
                    or rec.combination_error > 1e-10 \
                    or (rec.g_residual is None and not rec.null_step) \
                    or (rec.g_residual is not None
                        and rec.g_residual > 1e-8):
                ok = False
                detail = (f"size={rec.size} min_w={rec.min_weight:.1e} "
                          f"sum={rec.weight_sum_error:.1e} "
                          f"comb={rec.combination_error:.1e}")
    if count == 0:
        ok, detail = False, "no eliminations recorded"
    verdict(capsys, 3, ok, detail or f"{count} eliminations checked")


def test_criterion_04_planted_interior_all_kinds(capsys):
    ok = True
    detail = ""
    cases = [(kind, m, n, seed)
             for kind in ("lp", "sdp", "socp")
             for seed, (m, n) in enumerate([(2, 5), (3, 6), (4, 8),
                                            (5, 10), (6, 7)])]
    for kind, m, n, seed in cases:
        inst, _ = generate_planted(kind, m=m, n=n, seed=seed,
                                   target="feasible_d")
        t0 = time.perf_counter()
        out = main_algorithm(inst, epsilon=1e-2)
        dt = time.perf_counter() - t0
        if out.status != "feasible" or not out.verification.accepted:
            ok, detail = False, f"{kind} seed {seed}: {out.status}"
            break
        if dt >= 5.0:
            ok, detail = False, f"{kind} seed {seed} took {dt:.1f}s"
            break
    verdict(capsys, 4, ok, detail or f"{len(cases)} instances feasible")


def test_criterion_05_degenerate_instances(capsys):
    ok = True
    detail = ""
    out = main_algorithm(FiniteLp(np.array([[1.0, -1.0, 0.0, 0.0],
                                            [0.0, 0.0, 1.0, -1.0]])),
                         epsilon=1e-6)
    if out.status != "dual_certificate" or not out.verification.accepted \
            or out.verification.residual > 1e-9:
        ok, detail = False, f"axes pair gave {out.status}"
    duals = 0
    if ok:
        for seed in range(50):
            m = 2 + seed % 3
            inst, _ = generate_planted("lp", m=m, n=m + 3 + seed % 5,
                                       seed=seed, target="feasible_p")
            out = main_algorithm(inst, epsilon=1e-6)
            if out.status == "feasible":
                ok, detail = False, f"seed {seed} claimed feasible"
                break
            if out.status == "dual_certificate":
                duals += 1
                if not out.verification.accepted:
                    ok, detail = False, f"seed {seed} dual rejected"
                    break
    verdict(capsys, 5, ok,
            detail or f"50 instances, {duals} exact duals, rest declared")


def test_criterion_06_semi_infinite_oracles(capsys):
    ok = True
    detail = ""
    closed = main_algorithm(CustomOracle(2, make_semicircle(True)),
                            epsilon=1e-2)
    if closed.status != "epsilon_declared" \
            or closed.counters.rescalings != closed.s_star:
        ok, detail = False, f"closed arc: {closed.status}"
    if ok:
        open_arc = main_algorithm(CustomOracle(2, make_semicircle(False)),
                                  epsilon=1e-2)
        if open_arc.status == "dual_certificate":
            ok, detail = False, "open arc produced a dual certificate"
        elif open_arc.status == "feasible" \
                and not open_arc.verification.accepted:
            ok, detail = False, "open arc feasibility did not verify"
    verdict(capsys, 6, ok, detail or
            f"closed arc declared after {closed.counters.rescalings} "
            "rescalings; open arc never dual")


def test_criterion_07_builtin_oracle_agreement(capsys):
    rng = np.random.default_rng(1234)
    ok = True
    detail = ""
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        mats = rng.standard_normal((m, n, n))
        mats = (mats + np.transpose(mats, (0, 2, 1))) / 2.0
        inst = Sdp(mats)
        y = rng.standard_normal(m)
        X = np.tensordot(y, inst.matrices, axes=(0, 0))
        lam = float(np.min(np.linalg.eigvalsh(X)))
        scale = 1.0 + float(np.max(np.abs(X)))
        w = query(inst, y)
        if w is None and lam < -1e-10 * scale:
            ok, detail = False, f"sdp trial {trial}: missed {lam:.1e}"
            break
        if w is not None:
            val = float(w.column @ y)
            if val > 1e-10 * scale or lam > 1e-10 * scale:
                ok, detail = False, f"sdp trial {trial}: bad witness"
                break
    if ok:
        for trial in range(500):
            m = int(rng.integers(1, 5))
            sizes = []
            total = 0
            while total < 5:
                b = int(rng.integers(1, 4))
                sizes.append(b)
                total += b
            inst = Socp(rng.standard_normal((m, total)), tuple(sizes))
            y = rng.standard_normal(m)
            w = query(inst, y)
            x = inst.A.T @ y
            margins = [x[sl][0] - float(np.linalg.norm(x[sl][1:]))
                       for sl in inst.block_slices()]
            worst = min(margins)
            scale = 1.0 + float(np.max(np.abs(x)))
            if w is None and worst <= 0.0:
                ok, detail = False, f"socp trial {trial}: missed violation"
                break
            if w is not None:
                # the witness sits on the deepest violated block: least
                # margin_b / ||A v_b|| for v_b = (1, -xt/||xt||)
                depths = {}
                for b, sl in enumerate(inst.block_slices()):
                    if margins[b] > 0.0:
                        continue
                    tail = x[sl][1:]
                    vb = np.concatenate(
                        [[1.0], -tail / max(np.linalg.norm(tail), 1e-300)])
                    norm = float(np.linalg.norm(inst.A[:, sl] @ vb))
                    depths[b] = margins[b] / norm if norm > 0.0 else -np.inf
                picked = int(np.searchsorted(
                    inst.starts, np.flatnonzero(np.asarray(w.witness.v))[0],
                    side="right")) - 1
                val = float(w.column @ y)
                deepest = min(depths.values(), default=None)
                tie = 1e-10 * (1.0 + np.linalg.norm(y))
                if picked not in depths \
                        or abs(val - margins[picked]) > 1e-10 * scale \
                        or depths[picked] > deepest + tie:
                    ok, detail = False, \
                        f"socp trial {trial}: not the deepest violated block"
                    break
    verdict(capsys, 7, ok, detail or "1500 queries agree with direct checks")


def test_criterion_08_step_geometry(capsys):
    rng = np.random.default_rng(99)
    ok = True
    detail = ""
    for trial in range(10000):
        m = int(rng.integers(1, 9))
        a = rng.standard_normal(m)
        a /= np.linalg.norm(a)
        z = rng.standard_normal(m) * rng.uniform(1e-3, 3.0)
        if a @ z > 0:
            z -= 2.0 * (a @ z) * a
        alpha, z_new = step_alpha(z, a)
        z2 = float(z @ z)
        bound = z2 / (1.0 + z2)  # = |a|^2 |z|^2 / (|a|^2 + |z|^2)
        if not (-1e-12 <= alpha <= 1.0 + 1e-12) \
                or float(z_new @ z_new) > bound + 1e-12:
            ok, detail = False, f"trial {trial}"
            break
    verdict(capsys, 8, ok, detail or "10000 steps inside the envelope")


def test_criterion_09_rescaling_maps(capsys):
    rng = np.random.default_rng(7)
    ok = True
    detail = ""
    for trial in range(1000):
        m = int(rng.integers(1, 21))
        k = int(rng.integers(1, 4))
        state = RescalingState(m)
        for _ in range(k):
            a = rng.standard_normal(m)
            state.rescale(a / np.linalg.norm(a))
        det = float(np.linalg.det(state.M))
        if abs(det - 0.5**k) > 1e-12:
            ok, detail = False, f"det off by {det - 0.5**k:.1e}"
            break
    if ok:
        for trial in range(50):
            m = int(rng.integers(1, 21))
            state = RescalingState(m)
            product = np.eye(m)
            for _ in range(int(rng.integers(1, 31))):
                a = rng.standard_normal(m)
                a /= np.linalg.norm(a)
                state.rescale(a)
                product = product @ (np.eye(m) - 0.5 * np.outer(a, a))
            for _ in range(5):
                z = rng.standard_normal(m)
                if np.max(np.abs(state.apply(z) - product @ z)) > 1e-12 \
                        or np.max(np.abs(state.apply_transpose(z)
                                         - product.T @ z)) > 1e-12:
                    ok, detail = False, f"map mismatch, m={m}"
                    break
            if not ok:
                break
    verdict(capsys, 9, ok, detail or "dets exact, M == product of factors")


def test_criterion_10_reproducible_reports(capsys, tmp_path):
    corpus = []
    for kind, target in [("lp", "feasible_d"), ("lp", "feasible_p"),
                         ("sdp", "feasible_d"), ("sdp", "feasible_p"),
                         ("socp", "feasible_d"), ("socp", "feasible_p")]:
        path = tmp_path / f"{kind}_{target}.json"
        code = cli_main(["generate", "--kind", kind, "--m", "3", "--n", "5",
                         "--seed", "31", "--target", target,
                         "--output", str(path)])
        assert code == 0
        corpus.append(str(path))
    capsys.readouterr()
    ok = True
    detail = ""
    for path in corpus:
        runs = []
        for _ in range(2):
            code = cli_main(["solve", "--input", path, "--epsilon", "1e-2"])
            runs.append((code, capsys.readouterr().out))
        if runs[0] != runs[1]:
            ok, detail = False, f"{path} differed between runs"
            break
        json.loads(runs[0][1])
    verdict(capsys, 10, ok, detail or "6 problems, byte-identical reports")

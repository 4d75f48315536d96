"""Outside-in span tracing of prfeas's public functions.

The tracer swaps module attributes for timing wrappers, under the name
each caller looks the function up by, records one span per call (name,
start, end, parent span, request id) in memory and restores the
originals when the traced pass ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
from array import array

import numpy as np

import stats

#: (span name, module, attribute looked up by the caller).  A name may
#: appear under several modules when several callers import it.
PATCH_POINTS = [
    ("oracle.query", "prfeas.solver", "query"),
    ("oracle.query", "prfeas.certify", "query"),
    ("oracle.lp_query", "prfeas.oracle", "lp_query"),
    ("oracle.sdp_query", "prfeas.oracle", "sdp_query"),
    ("oracle.socp_query", "prfeas.oracle", "socp_query"),
    ("linalg.certifying_cholesky", "prfeas.oracle", "certifying_cholesky"),
    ("linalg.smw_inverse_update", "prfeas.solver", "smw_inverse_update"),
    ("linalg.inverse_with_factorization", "prfeas.solver",
     "inverse_with_factorization"),
    ("solver.main_algorithm", "prfeas.solver", "main_algorithm"),
    ("solver.main_algorithm", "prfeas.cli", "main_algorithm"),
    ("solver.basic_procedure", "prfeas.solver", "basic_procedure"),
    ("solver.rescale_map.apply", "prfeas.solver", "RescalingState.apply"),
    ("solver.rescale_map.apply_transpose", "prfeas.solver",
     "RescalingState.apply_transpose"),
    ("solver.rescale_map.normalize", "prfeas.solver",
     "RescalingState.normalize"),
    ("solver.rescale_map.rescale", "prfeas.solver", "RescalingState.rescale"),
    ("solver.step.step_alpha", "prfeas.solver", "step_alpha"),
    ("solver.support.add_term", "prfeas.solver", "ConvexCombination.add_term"),
    ("solver.support.scale_weights", "prfeas.solver",
     "ConvexCombination.scale_weights"),
    ("certify.verify_d_solution", "prfeas.certify", "verify_d_solution"),
    ("certify.verify_d_solution", "prfeas.cli", "verify_d_solution"),
    ("certify.verify_p_certificate", "prfeas.certify", "verify_p_certificate"),
    ("certify.verify_p_certificate", "prfeas.cli", "verify_p_certificate"),
    ("cli.main", "prfeas.cli", "main"),
    ("cli.load_problem", "prfeas.cli", "load_problem"),
    ("cli.load_certificate", "prfeas.cli", "load_certificate"),
    ("cli.solve_report", "prfeas.cli", "solve_report"),
]

#: The separation callback of a ``CustomOracle``, wrapped per instance.
CUSTOM_ORACLE = "oracle.custom"

#: Sub-layers of the solver, reported as sums over their functions.
SUBLAYERS = ("solver.rescale_map", "solver.step", "solver.support")

SPAN_NAMES = list(dict.fromkeys(
    [name for name, _, _ in PATCH_POINTS] + [CUSTOM_ORACLE]))


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in SPAN_NAMES + list(SUBLAYERS):
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out["solver.decided_run_share"] = "ratio"
    out["oracle.query.computed_bytes"] = "bytes"
    out["trace.overhead"] = "ratio"
    return out


class Tracer:
    """In-memory span recorder plus the per-layer counts it derives."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("i")
        self._stack = [-1]
        self.request_id = 0
        self.decided_runs = 0
        self.lp_bytes = 0
        self._hooks = {
            "oracle.lp_query": self._count_lp_bytes,
            "solver.basic_procedure": self._count_decided_run,
        }

    def _count_lp_bytes(self, args, result) -> None:
        inst = args[0]
        self.lp_bytes += 8 * inst.m * inst.n

    def _count_decided_run(self, args, result) -> None:
        if result.status in ("feasible", "dual"):
            self.decided_runs += 1

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._ids[name]
        name_id, start, end = self.name_id, self.start, self.end
        parent, request, stack = self.parent, self.request, self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def traced_instance(self, instance):
        """A copy of a ``CustomOracle`` whose callback is traced."""
        fn = getattr(instance, "fn", None)
        if fn is None:
            return instance
        return dataclasses.replace(instance, fn=self.wrap(CUSTOM_ORACLE, fn))

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block.

        A patch point that no longer exists (a later change removed or
        renamed the function) is skipped, so it reports zero calls.
        """
        saved = []
        try:
            for name, module, attr in PATCH_POINTS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, leaf, None)
                if orig is None:
                    continue
                saved.append((owner, leaf, orig))
                setattr(owner, leaf, self.wrap(name, orig))
            yield
        finally:
            for owner, leaf, orig in reversed(saved):
                setattr(owner, leaf, orig)

    def metrics(self) -> dict[str, float]:
        calls, self_s = stats.self_times(self.name_id, self.start, self.end,
                                         self.parent, len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        for layer in SUBLAYERS:
            members = [i for i, n in enumerate(self.names)
                       if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = int(sum(calls[i] for i in members))
            out[f"{layer}.self_s"] = float(sum(self_s[i] for i in members))
        runs = out["solver.basic_procedure.calls"]
        out["solver.decided_run_share"] = \
            self.decided_runs / runs if runs else 0.0
        out["oracle.query.computed_bytes"] = self.lp_bytes
        return out

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 request=np.frombuffer(self.request, dtype=np.int32))

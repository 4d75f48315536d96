"""prfeas benchmark: time to a verified outcome, end to end and per layer.

Run from the repository root:

    python3 benchmark/run.py --workload interior --seed 1 --seconds 24 --trace 0

``--trace 0`` times requests untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes of the same requests
and prints the per-layer metrics.  Either way the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a full
record (inputs, seeds, machine, per-request verdicts) goes to
``benchmark/out/``.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# one BLAS / OpenMP thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up (instance generation and file writing) repeats this many times.
SETUP_REPEATS = 3

#: A run stops early, after at least two passes, when one more pass would
#: end beyond this many ``--seconds``, so a much slower commit ends in time.
OVERRUN_FACTOR = 4.0

END_TO_END_UNITS = {
    "request_s.p50": "s",
    "request_s.tail": "s",
    "requests_per_s": "1/s",
    "oracle_calls": "count",
    "inner_iterations": "count",
    "inner_runs": "count",
    "decided_share": "ratio",
    "verified_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_prfeas() -> float:
    """Import prfeas from this checkout's ``src``; return seconds taken."""
    src = ROOT / "src"
    if not (src / "prfeas" / "__init__.py").is_file():
        raise ImportError(f"no prfeas package under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import prfeas
    elapsed = time.perf_counter() - start
    if Path(prfeas.__file__).resolve().parent != (src / "prfeas").resolve():
        raise ImportError(f"prfeas was imported from {prfeas.__file__}")
    return elapsed


def machine() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Run:
    """Passes of one workload and what their checks found."""

    def __init__(self, workload: str, items, seed: int):
        import numpy as np
        self.workload = workload
        self.items = items
        self.rng = np.random.default_rng(seed)
        self.verdicts = []
        self.samples = []
        self.walls = []
        self.first_pass = None
        self.errors = []
        self.notes = []

    def one_pass(self, tracer=None):
        import workloads
        order = self.rng.permutation(len(self.items))
        start = time.perf_counter()
        if tracer is None:
            samples = workloads.run_pass(self.workload, self.items, order)
        else:
            with tracer.patched():
                samples = workloads.run_pass(self.workload, self.items, order,
                                             tracer)
        wall = time.perf_counter() - start
        verdicts = [workloads.check(self.workload, s) for s in samples]
        counts = {v.key: v.counts for v in verdicts}
        if self.first_pass is None:
            self.first_pass = verdicts
        elif counts != {v.key: v.counts for v in self.first_pass}:
            label = "traced" if tracer is not None else "repeated"
            self.errors.append(
                f"{label} pass {len(self.walls)} differs from pass 0: "
                f"{sorted(counts.items())} vs "
                f"{sorted((v.key, v.counts) for v in self.first_pass)}")
        self.samples += samples
        self.verdicts += verdicts
        self.walls.append(wall)
        return sum(s.normalized_s for s in samples)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(v.category != "ok" for v in self.verdicts)

    @property
    def correct(self) -> bool:
        return not self.errors and \
            not any(v.category == "wrong" for v in self.verdicts)


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    import stats
    typical = stats.typical_times([v.key for v in run.verdicts],
                                  [s.normalized_s for s in run.samples])
    ok = [typical[v.key] for v in run.verdicts if v.category == "ok"]
    lat = stats.latency_summary(ok, run.failed)
    solves = [v for v in run.first_pass if v.key[1] == "solve"]
    values = {
        "request_s.p50": lat["p50"],
        "request_s.tail": lat["tail"],
        "requests_per_s": len(ok) / (len(run.walls) * sum(typical.values())),
        "oracle_calls": sum(v.oracle_calls for v in run.first_pass),
        "inner_iterations": sum(v.inner_iterations for v in run.first_pass),
        "inner_runs": sum(v.inner_runs for v in run.first_pass),
        "decided_share": sum(bool(v.decided) for v in solves) / len(solves),
        "verified_share": len(ok) / run.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    detail = {"tail_percentile": lat["tail_percentile"],
              "samples": lat["samples"]}
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["interior", "infeasible", "cli"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: request order and input scaling")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corpus-seed", type=int, default=1,
                        help="instance seed family (2 confirms a claim on "
                             "instances not used while developing)")
    args = parser.parse_args(argv)

    try:
        import_s = import_prfeas()
    except ImportError as exc:
        sys.stderr.write(f"benchmark: cannot import prfeas: {exc}\n")
        return 2
    import tracing
    import workloads

    workdir = OUT_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    # the reference kernel runs between the set-up stages, untimed, and
    # normalizes set-up like every request
    refs = [workloads.reference_seconds()]
    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = workloads.build(args.workload, args.corpus_seed, args.seed,
                                workdir)
        build_s.append(time.perf_counter() - start)
        refs.append(workloads.reference_seconds())
    start = time.perf_counter()
    workloads.warm_up(args.workload, workdir)
    warm_s = time.perf_counter() - start
    refs.append(workloads.reference_seconds())
    setup_s = (import_s + statistics.median(build_s) + warm_s) \
        * workloads.REFERENCE_NOMINAL_S / statistics.median(refs)

    run = Run(args.workload, items, args.seed)
    begin = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        untraced = traced = 0.0
        while True:
            start = time.perf_counter()
            for use in ((None, tracer) if len(run.walls) % 4 == 0
                        else (tracer, None)):
                normalized = run.one_pass(use)
                if use is None:
                    untraced += normalized
                else:
                    traced += normalized
            now = time.perf_counter()
            if (now - begin) + (now - start) > args.seconds:
                break  # another pair would overrun
        values = tracer.metrics()
        values["trace.overhead"] = traced / untraced - 1.0
        units = tracing.metric_units()
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        detail = {"spans": len(tracer.name_id)}
    else:
        passes = max(2, round(args.seconds
                              / workloads.NOMINAL_PASS_S[args.workload]))
        for p in range(1, passes + 1):
            run.one_pass()
            projected = time.perf_counter() - begin + run.walls[-1]
            if 2 <= p < passes and projected > OVERRUN_FACTOR * args.seconds:
                run.notes.append(f"stopped after {p} of {passes} passes")
                break
        values, detail = end_to_end(run, setup_s)
        units = END_TO_END_UNITS

    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "epsilon": workloads.EPSILON,
        "machine": machine(),
        "inputs": [dict(name=i.name, **i.inputs) for i in items],
        "setup": {"import_s": import_s, "build_s": build_s,
                  "warm_up_s": warm_s, "reference_s": refs},
        "passes": len(run.walls),
        "pass_walls_s": run.walls,
        "requests": [
            {"name": v.key[0], "op": v.key[1], "category": v.category,
             "counts": list(v.counts), "message": v.message,
             "median_normalized_s": statistics.median(
                 s.normalized_s for s in run.samples
                 if (s.item.name, s.op) == v.key)}
            for v in run.first_pass],
        "samples": [[s.item.name, s.op, s.seconds, s.normalized_s]
                    for s in run.samples],
        "errors": run.errors,
        "notes": run.notes,
        "detail": detail,
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  corpus "
          f"{args.corpus_seed}  epsilon {workloads.EPSILON}  "
          f"passes {len(run.walls)}  machine {record['machine']}")
    for v in run.first_pass:
        if v.category != "ok":
            print(f"  {v.category}: {v.key[0]} {v.key[1]}: {v.message}")
    for error in run.errors:
        print(f"  error: {error}")
    for note in run.notes:
        print(f"  note: {note}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  request_s.tail is p{detail['tail_percentile']:.1f} of "
              f"{detail['samples']} requests")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Latency percentiles and per-layer self times.

Pure functions over plain numbers, so they can be tested on synthetic
data without importing the solver.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def latency_summary(seconds: list[float], failures: int) -> dict:
    """Median and tail of per-request latency.

    Failed requests never delivered a result, so they rank above every
    completed one (as +inf).  The tail is the highest percentile with at
    least ``TAIL_BEYOND`` samples beyond it: with ``n`` samples that is
    the ``n - 10``-th smallest, i.e. percentile ``100 (n - 10) / n``.
    With fewer than ``TAIL_BEYOND + 1`` samples it falls back to the
    maximum and reports percentile 100.
    """
    ranked = sorted(seconds) + [math.inf] * failures
    n = len(ranked)
    if n == 0:
        raise ValueError("no requests to summarize")
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {
        "p50": statistics.median(ranked),
        "tail": ranked[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "samples": n,
    }


def typical_times(keys, seconds) -> dict:
    """Median time of each request over its repetitions (one per pass).

    The machine disturbs single repetitions by tens of percent, so the
    latency percentiles rank each request at its median time, once per
    repetition, rather than at each repetition's own time.
    """
    by_key: dict = {}
    for key, s in zip(keys, seconds):
        by_key.setdefault(key, []).append(s)
    return {key: statistics.median(v) for key, v in by_key.items()}


def self_times(name_ids, starts, ends, parents, n_names: int):
    """Calls and self seconds per span name.

    Spans nest strictly (one thread, synchronous calls), so a span's
    self time is its duration minus the durations of its direct
    children.  ``parents[i]`` is the index of span ``i``'s parent, or -1
    for a root.

    Returns
    -------
    (calls, self_s)
        Two arrays of length ``n_names``.
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    child = parents >= 0
    covered = np.bincount(parents[child], weights=dur[child],
                          minlength=dur.size)
    own = dur - covered
    calls = np.bincount(name_ids, minlength=n_names)
    self_s = np.bincount(name_ids, weights=own, minlength=n_names)
    return calls, self_s

"""Pure-python statistics the perf benchmark reports with (no numpy, no repro).

Everything the harness parent, ``compare.py`` and the tier-1 test share lives
here, so it can be imported before the BLAS thread pins are set and without
``src/`` on the path.
"""
from __future__ import annotations

import statistics

CHEM_ACC_HA = 1.6e-3   # chemical accuracy, 1.6 mHa
CHEM_ACC_WINDOW = 10   # iterations in the trailing energy mean
SETUP_FLOOR_S = 0.05   # a setup_s change below this is never a regression


def median(values):
    """Median, or ``None`` for an empty sample."""
    values = list(values)
    return statistics.median(values) if values else None


def tail_percentile(values, beyond: int = 10):
    """``(percentile, value)``: the highest percentile with >= ``beyond``
    samples beyond it (choosing-metrics guide, section 1).

    With 40 samples that is p75; below ``2 * beyond`` samples no percentile
    above the median qualifies and ``(None, None)`` is returned.
    """
    values = sorted(values)
    n = len(values)
    if n < 2 * beyond:
        return None, None
    rank = n - beyond            # 1-based rank of the reported sample
    return 100.0 * rank / n, values[rank - 1]


def iters_to_chem_acc(energies, e_ref: float, tol: float = CHEM_ACC_HA,
                      window: int = CHEM_ACC_WINDOW):
    """Smallest 1-based iteration ``k`` such that for every ``j >= k`` the mean
    energy over iterations ``max(1, j - window + 1) .. j`` is within ``tol`` of
    ``e_ref``; ``None`` when the last iteration is outside (never reached, or
    reached and lost)."""
    energies = list(energies)
    k = None
    for j in range(1, len(energies) + 1):
        tail = energies[max(0, j - window):j]
        inside = abs(sum(tail) / len(tail) - e_ref) <= tol
        if not inside:
            k = None
        elif k is None:
            k = j
    return k


def quartile_spread(values):
    """(Q3 - Q1) / median with ``statistics.quantiles(values, n=4)`` — the
    steadiness measure of the benchmark contract.  ``None`` below 2 samples."""
    values = list(values)
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None


def regressed(name: str, base: float, new: float, bound: float,
              better: str = "lower") -> bool:
    """Whether ``new`` is worse than ``base`` by more than ``bound`` (a share
    of ``base``).  ``setup_s`` additionally needs an absolute change above
    ``SETUP_FLOOR_S`` — a 20 ms import jitter on a 60 ms set-up is not a
    regression."""
    worse_by = (new - base) if better == "lower" else (base - new)
    if name == "setup_s" and worse_by <= SETUP_FLOOR_S:
        return False
    return worse_by > bound * abs(base)

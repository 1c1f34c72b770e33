"""The phase MLP's default width is the sweep's verdict.

``benchmarks/bench_phase_width.py`` times three widths on three systems and
applies the adoption rule (DESIGN.md "Phase MLP width"); its rows are
committed.  The default ``PHASE_HIDDEN`` must be the width the rule adopts
from those rows — or the paper's (512, 512) when it adopts none — and the
rule itself is pinned on hand-made rows.
"""
from __future__ import annotations

import json
import math

import pytest

from repro.nn import PHASE_HIDDEN


def _rows(scores: dict) -> list[dict]:
    """``{(system, width): [score, ...]}`` -> sweep rows."""
    return [{"system": system, "width": list(width), "score": s}
            for (system, width), values in scores.items() for s in values]


def _scores(h2, cas, n2, width=(256, 256)):
    base = {"h2": [1.0, 1.1, 1.2], "n2-cas66": [3.0, 3.5, 4.0],
            "n2": [9.0, 20.0, 30.0]}
    return {**{(s, (512, 512)): v for s, v in base.items()},
            ("h2", width): h2, ("n2-cas66", width): cas, ("n2", width): n2}


def test_the_default_is_the_committed_sweeps_verdict(phase_width):
    jsonl = phase_width.RESULTS / "phase_width_sweep.jsonl"
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    for system, seeds in (("h2", 16), ("n2-cas66", 6), ("n2", 5)):
        for width in phase_width.WIDTHS:
            n = sum(r["system"] == system and tuple(r["width"]) == width for r in rows)
            assert n >= seeds, (system, width, n)
    _, adopted = phase_width.verdict(rows)
    assert PHASE_HIDDEN == (adopted or phase_width.BASELINE)
    text = (phase_width.RESULTS / "phase_width_sweep.txt").read_text()
    assert text == phase_width.render(rows)


@pytest.mark.parametrize("h2, cas, n2, adopt", [
    ([0.3, 0.3, 0.4], [1.5, 2.0, math.inf], [10.0, 22.0, 25.0], True),
    ([0.3, 0.3, 0.4], [4.0, 5.0, 6.0], [10.0, 22.0, 25.0], False),     # one win
    ([0.3, 0.3, 0.4], [1.5, 2.0, 2.5], [30.0, 41.0, 45.0], False),     # N2 loses
    ([0.3, 0.3, 0.4], [1.5, 2.0, 2.5], [25.0, 30.0, 35.0], True),      # within spread
], ids=["wins", "one-win", "beyond-spread", "inside-spread"])
def test_the_adoption_rule(phase_width, h2, cas, n2, adopt):
    """Lower median on >= 2 of 3 systems, and on none higher than 512's
    median by more than 512's interquartile range."""
    _, adopted = phase_width.verdict(_rows(_scores(h2, cas, n2)))
    assert adopted == ((256, 256) if adopt else None)


def test_the_widest_passing_width_is_adopted(phase_width):
    scores = _scores([0.3, 0.3, 0.4], [1.5, 2.0, 2.5], [10.0, 22.0, 25.0])
    scores.update({(k[0], (128, 128)): v for k, v in scores.items()
                   if k[1] == (256, 256)})
    assert phase_width.verdict(_rows(scores))[1] == (256, 256)

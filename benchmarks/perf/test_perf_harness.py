"""Tier-1 checks of the perf harness itself: arithmetic, rules, wrappers, smoke.

No timing is asserted anywhere.  Everything but the last two tests is pure
python on hand-built inputs.  The default gate ends with a ``--quick`` run of
the smallest workload (smoke sizes, 2 units, ~3 s); the ``--quick`` suite over
all four workloads builds three molecules cold and is marked ``slow``.  Quick
runs write under ``out/quick/``, never over ``out/latest.json``.
"""
from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())


def span(id_, name, start, end, parent=None, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "unit": 0, **attrs}


# ------------------------------------------------------------ span arithmetic
def test_self_time_is_duration_minus_child_spans():
    tree = [
        span("a", "engine.stage3_eloc", 0.0, 10.0),
        span("b", "eloc.extend_table", 1.0, 7.0, parent="a"),
        span("c", "nn.forward_nograd", 2.0, 5.0, parent="b", rows=30),
        span("d", "nn.forward_nograd", 5.0, 6.0, parent="b", rows=10),
    ]
    kids = spans.children_of(tree)
    assert spans.self_time(tree[0], kids) == pytest.approx(4.0)   # 10 - 6
    assert spans.self_time(tree[1], kids) == pytest.approx(2.0)   # 6 - (3 + 1)
    assert spans.self_time(tree[2], kids) == pytest.approx(3.0)   # a leaf
    assert {s["id"] for s in spans.descendants(tree[0], kids)} == {"b", "c", "d"}


def test_unit_layers_attributes_every_second_of_an_iteration():
    tree = [
        span("1", "engine.stage1_sample", 0.0, 2.0),
        span("w", "sampler.sweep", 0.0, 2.0, parent="1"),
        span("i", "nn.inference.step", 0.5, 1.5, parent="w", rows=40),
        span("2", "engine.stage2_table", 2.0, 3.0),
        span("g", "nn.forward_nograd", 2.0, 2.8, parent="2", rows=8),
        span("3", "engine.stage3_eloc", 3.0, 5.0),
        span("x", "eloc.extend_table", 3.0, 4.5, parent="3", rows_added=7),
        span("5", "engine.stage5_backward", 5.0, 9.0, rows=8),
        span("p", "wf.log_prob", 5.0, 6.0, parent="5"),
        span("q", "wf.log_prob", 2.0, 2.5, parent="g"),      # no-grad: not taped
        span("b", "autograd.backward", 6.5, 9.0, parent="5"),
        span("6", "engine.stage6_update", 9.0, 9.5),
    ]
    got = layers.unit_layers(tree, wall_s=10.0)
    assert got["engine.stage1_sample_s"] == pytest.approx(2.0)
    assert got["engine.stage5_backward_s"] == pytest.approx(4.0)
    stages = sum(got[m] for m in layers.STAGES)
    assert stages == pytest.approx(9.5)
    assert got["engine.unattributed_s"] == pytest.approx(0.5)
    assert stages + got["engine.unattributed_s"] == pytest.approx(10.0)
    assert got["engine.stage_coverage_frac"] == pytest.approx(0.95)
    assert got["sampler.self_s"] == pytest.approx(1.0)            # sweep - decode
    assert got["sampler.tokens"] == 40
    assert got["sampler.tokens_per_s"] == pytest.approx(20.0)
    assert got["eloc.kernel_s"] == pytest.approx(0.5)             # stage 3 - extend
    assert got["eloc.extend_rows_added"] == 7
    assert got["autograd.forward_taped_s"] == pytest.approx(1.0)  # inside stage 5 only
    assert got["autograd.backward_s"] == pytest.approx(2.5)
    assert got["autograd.us_per_row"] == pytest.approx(4.0 / 8 * 1e6)
    assert got["nn.forward_nograd_us_per_row"] == pytest.approx(0.8 / 8 * 1e6)


def test_inner_iterations_divide_times_and_counts():
    tree = [span(str(i), "engine.stage6_update", i, i + 0.5) for i in range(4)]
    got = layers.unit_layers(tree, wall_s=1.0, inner=4)
    assert got["engine.stage6_update_s"] == pytest.approx(0.5)
    assert got["engine.unattributed_s"] == pytest.approx(0.5)
    assert layers.once_layers([span("c", "checkpoint.save", 0.0, 0.25)])[
        "checkpoint.save_s"] == pytest.approx(0.25)


# ------------------------------------------------------------------- rules
def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    assert stats.tail_percentile(range(1, 41)) == (75.0, 30)
    assert stats.tail_percentile(range(1, 101)) == (90.0, 90)
    assert stats.tail_percentile(range(1, 21)) == (50.0, 10)
    assert stats.tail_percentile(range(19)) == (None, None)


def test_iters_to_chem_acc():
    ref, tol = -1.0, stats.CHEM_ACC_HA
    far, near = ref + 10 * tol, ref + 0.5 * tol
    assert stats.iters_to_chem_acc([far] * 50, ref) is None          # never reached
    # window mean: ten `near` values must first flush the `far` ones out
    k = stats.iters_to_chem_acc([far] * 5 + [near] * 30, ref)
    assert k is not None and 6 <= k <= 5 + stats.CHEM_ACC_WINDOW
    assert stats.iters_to_chem_acc([near] * 40, ref) == 1
    # reached, lost, reached again: the later k counts
    lost = [near] * 20 + [far] * 3 + [near] * 30
    assert stats.iters_to_chem_acc(lost, ref) > 23
    # reached, then lost for good
    assert stats.iters_to_chem_acc([near] * 20 + [far] * 20, ref) is None


def test_bound_comparison_and_the_setup_floor():
    assert stats.regressed("unit_s", 1.0, 1.3, 0.25)
    assert not stats.regressed("unit_s", 1.0, 1.2, 0.25)
    assert not stats.regressed("unit_s", 1.0, 0.5, 0.25)
    # 40 % worse, but 20 ms: below the absolute floor of a set-up regression
    assert not stats.regressed("setup_s", 0.05, 0.07, 0.25)
    assert stats.regressed("setup_s", 1.0, 1.3, 0.25)
    assert stats.regressed("rate", 100.0, 70.0, 0.25, better="higher")


def test_verdicts_unresolved_is_not_unchanged():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict("unit_s", steady, [1.02, 1.01, 1.03, 1.02], 0.1) == "ok"
    assert compare.verdict("unit_s", steady, [1.3, 1.31, 1.29, 1.3], 0.1) == "regression"
    assert compare.verdict("unit_s", steady, [0.7, 0.71, 0.69, 0.7], 0.1) == "improved"
    noisy = [0.8, 1.2, 0.9, 1.1]
    assert compare.verdict("unit_s", noisy, [0.85, 1.15, 0.95, 1.05], 0.1) == "unresolved"
    # wider than the bound, but every new run beats every base run
    assert compare.verdict("unit_s", noisy, [0.5, 0.7, 0.55, 0.6], 0.1) == "improved"


def test_run_rules_fingerprints_iterations_and_the_contract_line():
    units = [{"fingerprint": [1]}, {"fingerprint": [2]}, {"fingerprint": [3]}]
    # a shorter episode (a traced pass has other counts) is checked on the common prefix
    assert run.reproducibility_failures(units, units[:2], "x") == []
    assert run.reproducibility_failures(
        units, [{"fingerprint": [1]}, {"fingerprint": [9]}], "between two processes"
    ) == ["unit 1: outputs differ between two processes"]
    assert run.iteration_s({"wall_s": 0.5}) == 0.5
    assert run.iteration_s({"wall_s": 6.0, "train_s": 4.0, "inner": 400}) == 0.01
    # not measured stays null in the records; the contract line wants a number
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"a_s": {"value": 1.5, "unit": "s"},
                          "b_s": {"value": None, "unit": "s"}},
              "detail": {"anything": 1}}
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"a_s": {"value": 1.5, "unit": "s"},
                               "b_s": {"value": 0.0, "unit": "s"}}
    assert result["metrics"]["b_s"]["value"] is None


def test_a_failed_episode_is_a_failed_operation_with_a_result_line(monkeypatch):
    def crash(*args, **kwargs):
        raise run.EpisodeFailed("timed episode of n2_grad exited 1")

    monkeypatch.setattr(run, "spawn_episode", crash)
    result = run.run_workload("n2_grad", seed=0, seconds=10, trace=False, quick=True)
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] >= 1
    assert result["detail"]["problems"] == ["timed episode of n2_grad exited 1"]
    assert set(json.loads(run.contract_line(result))) == {
        "correct", "attempted", "failed", "metrics"}
    assert not list((HERE / "out").glob("tmp-*"))


def test_compare_survives_null_zero_and_missing_metrics():
    def record(unit_runs, layer):
        return {"host": {"seed": 0, "git_sha": None}, "workloads": {"w": {
            "attempted": 4, "failed": 0,
            "end_to_end": {"unit_s": {"unit": "s", "bound": 0.25, "better": "lower",
                                      "runs": unit_runs}},
            "per_layer": layer}}}

    base = record([1.0, 1.1], {"x_s": {"value": 0.0, "unit": "s"},
                               "k": {"value": None, "unit": "count"},
                               "t_s": {"value": None, "unit": "s"},
                               "gone_s": {"value": 2.0, "unit": "s"}})
    new = record([1.0, 1.05], {"x_s": {"value": 0.1, "unit": "s"},
                               "k": {"value": 7, "unit": "count"},
                               "t_s": {"value": None, "unit": "s"}})
    out = io.StringIO()
    assert compare.compare(base, new, out) == 0
    assert "measured on one side only" in out.getvalue() and "n/a" in out.getvalue()
    # the new record's run failed outright: no value is not "no regression"
    new["workloads"]["w"]["end_to_end"] = {}
    assert compare.compare(base, new, out) == 1
    assert "not measured in the new record" in out.getvalue()


# ---------------------------------------------------------------- contract
def test_benchmark_json_meets_the_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = ([w["name"] for w in CONTRACT["workloads"]]
             + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]])
    assert len(names) == len(set(names)) and all(map(name_re.match, names))
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * 32 <= 3420 * 0.9    # README "Budget": 32 s per run on average, 10 % spare


# ---------------------------------------------------------------- wrappers
def test_install_then_restore_leaves_every_target_identical():
    def bound():
        """What each target's owner currently holds under the target's name."""
        out = {}
        for _, module, dotted, _ in spans.TARGETS:
            owner, leaf, _ = spans._resolve(module, dotted)
            out[module, dotted] = vars(owner)[leaf]
        return out

    before = bound()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(now is not before[key] for key, now in bound().items())
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert all(now is before[key] for key, now in bound().items())


def test_a_target_that_no_longer_resolves_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("gone", "repro.core.engine", "stage_that_was_renamed", None),
        ("gone", "repro.no_such_module", "f", None)))
    tracer = spans.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.missing == ["repro.core.engine:stage_that_was_renamed",
                              "repro.no_such_module:f"]
    assert tracer.missing_spans == ["gone", "gone"]
    # ... and what was computed from its span is reported as not measured
    assert layers.unmeasured(["engine.stage3_eloc"]) == {
        "engine.stage3_eloc_s", "eloc.kernel_s", "engine.unattributed_s",
        "engine.stage_coverage_frac"}
    assert layers.unmeasured([]) == set()


def test_wrapper_records_nested_spans_and_survives_a_failing_attr_hook():
    tracer = spans.Tracer()
    tracer.unit = 7

    def hook(args, kwargs, result):
        raise KeyError("signature changed")

    inner = tracer._wrap("inner", lambda x: x + 1, hook)
    outer = tracer._wrap("outer", lambda x: inner(x) * 2, None)
    assert outer(1) == 4
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["unit"] == 7
    assert by_name["outer"]["start"] <= by_name["inner"]["start"] \
        <= by_name["inner"]["end"] <= by_name["outer"]["end"]


# ------------------------------------------------------------------- smoke
QUICK = HERE / "out" / "quick"      # --quick never touches out/latest.json


def test_quick_run_of_one_workload_prints_the_contract_line(tmp_path):
    for trace, wanted in ((0, CONTRACT["end_to_end"]), (1, CONTRACT["per_layer"])):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "h2_converge",
             "--seed", "1", "--trace", str(trace), "--quick"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 2
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["metrics"]["engine.stage5_backward_s"]["value"] > 0
    assert (QUICK / "trace_h2_converge.json").exists()
    assert not list((HERE / "out").glob("tmp-*"))


@pytest.mark.slow
def test_quick_suite_names_every_workload_and_metric(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    latest = json.loads((QUICK / "latest.json").read_text())
    assert latest["quick"] is True
    assert list(latest["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    for name, w in latest["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] >= 2, (name, w["problems"])
        assert list(w["end_to_end"]) == [m["name"] for m in CONTRACT["end_to_end"]]
        assert all(v > 0 for m in w["end_to_end"].values() for v in m["runs"])
        assert set(w["per_layer"]) >= {m["name"] for m in CONTRACT["per_layer"]}
        assert w["trace_missing"] == []
    # every metric is measured (not null) on at least one workload, bar what
    # smoke sizes cannot reach: a tail needs 20 units, chemical accuracy 200
    # iterations
    beyond_smoke = {"engine.iter_tail_s", "engine.iter_tail_pct",
                    "trainer.iters_to_chem_acc", "trainer.time_to_chem_acc_s"}
    for metric in [m["name"] for m in CONTRACT["per_layer"]]:
        if metric not in beyond_smoke:
            assert any(w["per_layer"][metric]["value"] is not None
                       for w in latest["workloads"].values()), metric
    for metric in [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]:
        assert metric in proc.stdout, metric
    assert (QUICK / "trace_n2_grad.json").exists()
    assert not list((HERE / "out").glob("tmp-*"))

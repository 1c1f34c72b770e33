"""Tests for the ``python -m repro`` CLI (repro.api.cli).

Most cases drive ``main(argv)`` in-process (fast, assertable); one subprocess
case guards the real ``python -m repro`` entry point.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import build_parser, main
from repro.core.checkpoint import load_model_snapshot

SMOKE_ARGS = [
    "--set", "train.max_iterations=2",
    "--set", "sampling.ns_pretrain=300",
    "--set", "sampling.ns_max=300",
]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("cli") / "run"
    rc = main(["run", "--preset", "smoke", *SMOKE_ARGS,
               "--run-dir", str(run_dir)])
    assert rc == 0
    return run_dir


class TestRun:
    def test_artifacts_written(self, smoke_run):
        assert (smoke_run / "spec.json").exists()
        assert (smoke_run / "metrics.jsonl").exists()
        assert (smoke_run / "report.json").exists()
        assert (smoke_run / "models" / "manifest.json").exists()

    def test_overrides_took_effect(self, smoke_run):
        spec = json.loads((smoke_run / "spec.json").read_text())
        assert spec["train"]["max_iterations"] == 2
        rows = [json.loads(l) for l in
                (smoke_run / "metrics.jsonl").read_text().splitlines()]
        iters = [r["iteration"] for r in rows if "iteration" in r]
        assert iters == [1, 2]

    def test_snapshot_loadable(self, smoke_run):
        manifest = json.loads(
            (smoke_run / "models" / "manifest.json").read_text())
        latest = manifest["latest"]
        path = smoke_run / "models" / manifest["versions"][str(latest)]["file"]
        wf, _ = load_model_snapshot(path)
        assert wf.n_qubits == 4

    def test_summary_printed(self, capsys, tmp_path):
        rc = main(["run", "--preset", "smoke", *SMOKE_ARGS,
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final energy" in out
        assert "published snapshot" in out

    def test_rerun_into_same_dir_fails(self, smoke_run, capsys):
        rc = main(["run", "--preset", "smoke", "--run-dir", str(smoke_run)])
        assert rc == 2
        assert "already contains a run" in capsys.readouterr().err

    def test_unknown_preset_fails_actionably(self, capsys):
        rc = main(["run", "--preset", "nope"])
        assert rc == 2
        assert "smoke" in capsys.readouterr().err

    def test_bad_override_fails_actionably(self, capsys, tmp_path):
        rc = main(["run", "--preset", "smoke",
                   "--set", "train.max_iterations=0",
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "train.max_iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment,path,hint", [
        ("ansatz.n_heads=3", "ansatz.n_heads", "d_model=8"),
        ("problem.molecule=Xx", "problem.molecule", "LiH"),
        ('problem.geometry={"bogus": 1.0}', "problem.geometry", "bogus"),
        ('parallel.backend="threads"', "parallel.backend", "process"),
    ], ids=["n_heads", "molecule", "geometry", "thread_ranks"])
    def test_a_spec_mistake_is_one_line_naming_the_path(self, assignment, path,
                                                        hint, capsys, tmp_path):
        """Exit 2 with ``error: <path> ...``, not a traceback out of the
        network, the molecule table or a geometry factory; the run directory
        stays reusable."""
        run_dir = tmp_path / "run"
        assert main(["run", "--preset", "smoke", "--set", assignment,
                     "--run-dir", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and hint in err
        assert len(err.splitlines()) == 1
        assert main(["run", "--preset", "smoke", *SMOKE_ARGS,
                     "--run-dir", str(run_dir)]) == 0

    def test_spec_file_source(self, tmp_path):
        from repro.api import get_preset

        spec_path = tmp_path / "spec.json"
        get_preset("smoke").with_overrides(
            {"train.max_iterations": 1, "sampling.ns_pretrain": 300,
             "sampling.ns_max": 300}).save(spec_path)
        rc = main(["run", "--spec", str(spec_path),
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "report.json").exists()

    def test_missing_spec_file(self, capsys, tmp_path):
        rc = main(["run", "--spec", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err


class TestResume:
    def test_resume_extends_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", "--preset", "smoke", *SMOKE_ARGS,
                     "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        rc = main(["resume", str(run_dir),
                   "--set", "train.max_iterations=4"])
        assert rc == 0
        assert "final energy" in capsys.readouterr().out
        rows = [json.loads(l) for l in
                (run_dir / "metrics.jsonl").read_text().splitlines()]
        iters = [r["iteration"] for r in rows if "iteration" in r]
        assert iters == [1, 2, 3, 4]

    def test_resume_non_run_dir(self, capsys, tmp_path):
        rc = main(["resume", str(tmp_path / "empty")])
        assert rc == 2
        assert "not a run directory" in capsys.readouterr().err


class TestInfo:
    def test_run_dir_info(self, smoke_run, capsys):
        rc = main(["info", str(smoke_run)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "H2/sto-3g" in out
        assert "2 iterations" in out
        assert "best E" in out

    def test_torn_trailing_metrics_line_is_skipped(self, smoke_run, capsys,
                                                    tmp_path):
        """A kill mid-append leaves a torn last line; info must still read
        the run.  A torn line in the *middle* is corruption and still raises."""
        import shutil

        run = tmp_path / "run"
        shutil.copytree(smoke_run, run)
        metrics = run / "metrics.jsonl"
        intact = metrics.read_text()
        metrics.write_text(intact + '{"iteration": 3, "ener')
        assert main(["info", str(run)]) == 0
        assert "2 iterations" in capsys.readouterr().out

        metrics.write_text('{"iteration": 0, "ener\n' + intact)
        with pytest.raises(json.JSONDecodeError):
            main(["info", str(run)])

    def test_presets_listing(self, capsys):
        rc = main(["info", "--presets"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("smoke", "h2", "n2-cas66"):
            assert name in out
        assert "ansatz" not in out   # one ansatz: nothing to name
        with pytest.raises(SystemExit):      # no registry to list
            main(["info", "--components"])

    def test_no_args_is_usage_error(self, capsys):
        assert main(["info"]) == 2
        assert "run directory" in capsys.readouterr().err


class TestServe:
    def test_serve_non_run_dir(self, capsys, tmp_path):
        rc = main(["serve", str(tmp_path / "empty")])
        assert rc == 2
        assert "not a run directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--bits-file", "bits.json"],
                                      ["--n-random", "3"], ["--seed", "0"],
                                      ["--version", "1"]])
    def test_self_check_flags_are_refused(self, flag, capsys):
        # serve has one mode, the HTTP front door; the in-process
        # self-check and its flags are gone.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "RUN", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_port_defaults_to_a_free_port(self):
        args = build_parser().parse_args(["serve", "RUN"])
        assert (args.port, args.host) == (0, "127.0.0.1")


def test_module_entry_point(tmp_path):
    """`python -m repro` is the real front door; smoke it as a subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "info", "--presets"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "smoke" in proc.stdout

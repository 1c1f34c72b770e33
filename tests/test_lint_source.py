"""``tools/lint_source.py`` (the CI "Source lint" step) and the import graph
it protects: a rank imports numpy and ``repro``, never scipy."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def lint_source():
    spec = importlib.util.spec_from_file_location(
        "lint_source", ROOT / "tools" / "lint_source.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["lint_source"] = mod      # its dataclass resolves annotations through it
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture()
def tree(lint_source, tmp_path):
    """An empty checkout: every file a rule names exists and is blank."""
    for rule in lint_source.RULES:
        for rel in rule.paths + rule.exempt:
            path = tmp_path / rel
            if rel.endswith(".py"):
                path.parent.mkdir(parents=True, exist_ok=True)
                path.touch()
            else:
                path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "src/repro/chem").mkdir()
    assert lint_source.lint(tmp_path) == []
    return tmp_path


def violated(errors):
    """The rule names in a list of ``file:line: [rule] ...`` messages."""
    return sorted({e.split("[", 1)[1].split("]", 1)[0] for e in errors})


class TestSourceLint:
    def test_the_repository_is_clean(self, lint_source):
        assert lint_source.main(["lint_source", str(ROOT)]) == 0
        assert lint_source.lint(ROOT) == []

    def test_a_rule_naming_a_missing_path_is_an_error(self, lint_source, tmp_path):
        assert lint_source.main(["lint_source", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", [
        "import scipy", "import scipy.linalg", "from scipy.special import hyp1f1",
        "from scipy import sparse", "import scipy.sparse.linalg as spla  # Lanczos",
    ])
    @pytest.mark.parametrize("rel", [
        "src/repro/chem/integrals/boys.py", "src/repro/hamiltonian/exact.py",
        "src/repro/serve/net/deep/new_module.py",
    ])
    def test_module_level_scipy_is_refused_anywhere(self, lint_source, tree, rel, line):
        path = tree / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f'"""Docstring."""\nimport numpy as np\n{line}\n')
        errors = lint_source.lint(tree)
        assert violated(errors) == ["no-module-level-scipy"]
        assert errors[0].startswith(f"{rel}:3: ")
        assert lint_source.main(["lint_source", str(tree)]) == 1

    def test_function_local_scipy_only_in_exact(self, lint_source, tree):
        body = "def f():\n    import scipy.sparse.linalg as spla\n    return spla\n"
        (tree / "src/repro/hamiltonian/exact.py").write_text(body)
        assert lint_source.lint(tree) == []
        (tree / "src/repro/chem/davidson.py").write_text(body)
        errors = lint_source.lint(tree)
        assert violated(errors) == ["scipy-only-inside-the-lanczos-branch"]
        assert errors[0].startswith("src/repro/chem/davidson.py:2: ")

    def test_prose_about_scipy_passes(self, lint_source, tree):
        (tree / "src/repro/chem/davidson.py").write_text(
            '"""Faster than scipy.sparse.linalg.eigsh; gated against scipy.special."""\n'
            "x = 'import scipy'\n")
        assert lint_source.lint(tree) == []

    @pytest.mark.parametrize("rule,rel,line", [
        ("one-comm-accounting-site", "src/repro/core/engine.py", "comm.stats.add(nbytes)"),
        ("no-probing-no-second-path", "src/repro/core/vmc.py", "if hasattr(comm, 'rank'):"),
        ("no-probing-no-second-path", "src/repro/nn/x.py", "def f(use_cache=True): ..."),
        ("no-probing-no-second-path", "src/repro/core/x.py", "if optimizer.name == 'sr':"),
        ("arena-owns-the-flat-buffers", "src/repro/optim/adamw.py",
         "flat = xp.concatenate(parts)"),
        ("stage5-writes-into-the-arena", "src/repro/core/engine.py", "wf.set_flat_grads(g)"),
        ("optimizer-and-plan-own-their-numbers", "src/repro/core/trainer.py", "warmup = 150"),
        ("optimizer-and-plan-own-their-numbers", "src/repro/core/vmc.py",
         "plan = ElocPlan(comp, group_chunk=512)"),
        ("driver-compares-no-backend-name", "src/repro/api/driver.py",
         'if p.backend == "threads":'),
        ("backend-classes-are-their-factories", "src/repro/api/builtins.py",
         "def build_thread_backend(spec):"),
        ("no-device-adapter-without-a-device", "src/repro/backend/x.py", "import torch"),
        ("one-sampler", "src/repro/core/x.py", "SAMPLERS = {}"),
        ("one-sampler", "src/repro/parallel/x.py", "from mpi4py import MPI"),
        ("no-sampler-field", "src/repro/api/spec.py", "    sampler: str = 'bas'"),
        ("one-amplitude-protocol", "src/repro/core/wavefunction.py",
         'if hasattr(self.amplitude, "make_session"):'),
        ("one-amplitude-protocol", "src/repro/nn/inference.py",
         'length = n if getattr(model, "fixed_length", False) else k + 1'),
        ("one-amplitude-protocol", "src/repro/core/engine.py",
         'd_model = getattr(wf.amplitude, "d_model", 16)'),
        ("one-amplitude-protocol", "src/repro/serve/pool.py",
         "return make_inference_session(self.amplitude, batch_size)"),
        ("one-amplitude-protocol", "src/repro/api/builtins.py",
         'build_qiankunnet(n, 1, 1, amplitude_type="made")'),
        ("one-amplitude-protocol", "src/repro/nn/made.py", "class MADEAmplitude(Module):"),
    ])
    def test_relocated_grep_clauses_still_bite(self, lint_source, tree, rule, rel, line):
        path = tree / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(line + "\n")
        assert rule in violated(lint_source.lint(tree))

    def test_comm_accounting_is_allowed_in_comm_py(self, lint_source, tree):
        (tree / "src/repro/parallel/comm.py").write_text("self.stats.add(n)\n")
        assert lint_source.lint(tree) == []

    def test_every_rule_is_named_once_and_says_why(self, lint_source):
        names = [r.name for r in lint_source.RULES]
        assert len(set(names)) == len(names)
        assert all(r.why and r.paths for r in lint_source.RULES)


class TestImportGraph:
    def test_importing_the_package_does_not_import_scipy(self):
        code = ("import repro, repro.api, repro.chem, repro.core, repro.serve, sys; "
                "bad = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                "assert not bad, bad[:5]")
        env_path = str(ROOT / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={"PYTHONPATH": env_path, "PATH": ""})
        assert proc.returncode == 0, proc.stderr[-2000:]

"""Self-test of the kernel lint (``tools/lint_kernels.py``): the
integer-``**`` rule on the hot-path modules and the ``axis=-1`` reduction
rule on the contraction modules, and the tree passes both; the hot-path
modules take their dtypes from ``repro.dtypes``."""
from __future__ import annotations

import pytest


class TestKernelLint:
    @pytest.fixture()
    def lint_file(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "tools" / "lint_kernels.py"
        spec = importlib.util.spec_from_file_location("lint_kernels", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.lint_file

    def test_flags_integer_power_of_three_or_more(self, lint_file, tmp_path):
        src = tmp_path / "pow.py"
        src.write_text(
            "y = a**3\n"              # flagged: numpy routes it through pow
            "z = (a + b) ** 4\n"      # flagged
            "v = a ** 2\n"            # squaring is a multiply already
            "n = 10**5 + 2**20\n"     # literal base: constant arithmetic
            "w = a ** -0.5\n"
            "def f(**kwargs): return g(**kwargs)\n"
        )
        errors = lint_file(src)
        assert len(errors) == 2
        assert any(":1:" in e and "multiply instead" in e for e in errors)
        assert any(":2:" in e for e in errors)

    def test_numpy_is_the_array_module(self, lint_file, tmp_path):
        """The kernels call numpy directly: neither rule flags an import of
        numpy or an ``np.`` call."""
        src = tmp_path / "np.py"
        src.write_text(
            "import numpy as np\n"
            "x = np.zeros(3)\n"
            "y = np.einsum('ij,j->i', a, x)\n"
        )
        assert lint_file(src) == []
        assert lint_file(src, contractions=True) == []

    def test_flags_last_axis_reductions_where_contractions_are_required(
            self, lint_file, tmp_path):
        src = tmp_path / "reduce.py"
        src.write_text(
            "m = xp.max(x, axis=-1, keepdims=True)\n"          # flagged
            "s = xp.sum(f(x, axis=-1) * y,\n"
            "           axis=-1)\n"                            # flagged (line 3)
            "a = xp.mean(x, keepdims=True, axis = -1)\n"       # flagged
            "b = xp.sum(x, axis=0) + xp.sum(x, axis=1)\n"      # other axes pass
            "c = xp.concatenate([x, y], axis=-1)\n"            # not a reduction
            "d = last_axis_sum(x)\n"
        )
        errors = lint_file(src, contractions=True)
        assert len(errors) == 3
        for line in (1, 3, 4):
            assert any(f":{line}:" in e and "last_axis_sum" in e for e in errors)
        assert lint_file(src) == []      # the rule is per file

    def test_hot_path_files_take_dtypes_from_the_policy_module(self):
        """The dtype policy is one module, ``repro.dtypes``: no hot-path file
        spells a numpy scalar type inline."""
        import importlib.util
        import re
        from pathlib import Path

        import repro.dtypes

        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "lint_kernels", root / "tools" / "lint_kernels.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        inline = re.compile(
            r"\bnp\.(%s)\b" % "|".join(map(re.escape, repro.dtypes.__all__)))
        for rel in mod.HOT_PATH_FILES:
            hits = inline.findall((root / rel).read_text())
            assert hits == [], (rel, hits)

    def test_hot_path_files_are_clean(self, lint_file):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "lint_kernels", root / "tools" / "lint_kernels.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.CONTRACTION_FILES <= set(mod.HOT_PATH_FILES)
        for rel in mod.HOT_PATH_FILES:
            assert mod.lint_file(
                root / rel, contractions=rel in mod.CONTRACTION_FILES) == [], rel

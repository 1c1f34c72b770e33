"""The array-backend seam: registry, residency counters, bit-identity.

Two layers of guarantees (DESIGN.md "Array backend"):

1. the registry/context machinery (``get_backend`` / ``use_backend`` /
   the ``xp`` proxy) resolves and scopes backends correctly;
2. the instrumented mock backend is *bit-identical* to the numpy default
   across sample / local-energy / backward for all three ansätze, while
   its counters prove the residency contract — zero unplanned host
   transfers inside the sampling loop, exactly one tagged transfer per
   stage-2 and stage-6 collective per rank per iteration.

The lint self-test pins the CI backend-purity gate's behavior.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.api.spec import BackendSpec, RunSpec, SpecError
from repro.backend import (
    BACKEND_NAMES,
    UNTAGGED,
    ArrayBackend,
    active_backend,
    counter_delta,
    get_backend,
    use_backend,
    xp,
)
from repro.core import VMC, NoamAdamW, VMCConfig
from tests.conftest import ANSATZE, build_wf


def _fresh_vmc(problem, amplitude_type="transformer", array_backend="numpy",
               seed=3, n_samples=600):
    wf = build_wf(amplitude_type, 4, 1, 1, d_model=8, n_heads=2, n_layers=1,
                  phase_hidden=(8,), seed=7)
    cfg = VMCConfig(n_samples=n_samples, eloc_mode="exact", seed=seed)
    return VMC(wf, problem.hamiltonian, cfg, array_backend=array_backend,
               optimizer=NoamAdamW(wf, warmup=50))


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("numpy", "mock")

    def test_numpy_default_and_cached(self):
        b = get_backend("numpy")
        assert b.name == "numpy"
        assert b.xp is np
        assert not b.device_resident
        assert get_backend("numpy") is b

    def test_instance_passthrough(self):
        b = get_backend("mock")
        assert get_backend(b) is b

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("tpu")

    def test_mock_is_device_resident(self):
        assert get_backend("mock").device_resident

    def test_active_backend_defaults_to_numpy(self):
        assert active_backend().name == "numpy"

    def test_use_backend_scopes_and_nests(self):
        mock = get_backend("mock")
        with use_backend(mock):
            assert active_backend() is mock
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend() is mock
        assert active_backend().name == "numpy"

    def test_xp_proxy_follows_active_backend(self):
        host = xp.zeros(3)
        assert isinstance(host, np.ndarray)
        with use_backend("mock"):
            before = active_backend().counter_snapshot()
            xp.zeros(3)
            after = active_backend().counter_snapshot()
        assert counter_delta(before, after)["alloc"] == 1

    def test_numpy_backend_has_no_counters(self):
        assert get_backend("numpy").counter_snapshot() is None
        assert counter_delta(None, None) is None


# ----------------------------------------------------------- mock counters
class TestMockCounters:
    def test_tagged_and_untagged_to_host(self):
        mock = get_backend("mock")
        mock.reset_counters()
        a = np.arange(4.0)
        before = mock.counter_snapshot()
        mock.to_host(a, tag="stage2.amps")
        mock.to_host(a, tag="stage2.amps")
        mock.to_host(a)  # unplanned
        delta = counter_delta(before, mock.counter_snapshot())
        assert delta["to_host"] == {"stage2.amps": 2, UNTAGGED: 1}

    def test_to_host_is_identity(self):
        a = np.arange(4.0)
        assert get_backend("mock").to_host(a) is a

    def test_from_host_counted(self):
        mock = get_backend("mock")
        before = mock.counter_snapshot()
        mock.from_host(np.arange(3.0))
        delta = counter_delta(before, mock.counter_snapshot())
        assert delta["from_host"] == 1

    def test_counter_delta_of_identical_snapshots_is_empty(self):
        # Scalar counters diff to zero; per-tag dicts drop untouched tags.
        mock = get_backend("mock")
        snap = mock.counter_snapshot()
        assert counter_delta(snap, snap) == {
            "alloc": 0, "from_host": 0, "to_host": {},
        }


# ---------------------------------------------------------------- spec tier
class TestBackendSpec:
    def test_defaults(self):
        spec = BackendSpec()
        assert spec.name == "numpy"
        with pytest.raises(SpecError, match="backend.device"):
            RunSpec.from_dict({"backend": {"device": "cuda:0"}})

    def test_rejects_unknown_name(self):
        with pytest.raises(SpecError, match="backend.name"):
            BackendSpec(name="tpu")

    def test_runspec_roundtrip(self):
        spec = RunSpec.from_dict({"backend": {"name": "mock"}})
        assert spec.backend.name == "mock"
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_set_override(self):
        spec = RunSpec().with_overrides(["backend.name=mock"])
        assert spec.backend.name == "mock"

    def test_serve_backend_validated(self):
        with pytest.raises(SpecError, match="serve.backend"):
            RunSpec.from_dict({"serve": {"backend": "tpu"}})


# ----------------------------------------------- mock vs numpy bit-identity
class TestMockBitIdentity:
    """The mock backend must be invisible to the numbers: every ansatz's
    sample / E_loc / Eq. 7 backward trajectory matches numpy bitwise."""

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_vmc_trajectory_bitwise(self, h2_problem, amplitude_type):
        ref = _fresh_vmc(h2_problem, amplitude_type, array_backend="numpy")
        mock = _fresh_vmc(h2_problem, amplitude_type, array_backend="mock")
        for _ in range(3):
            a, b = ref.step(), mock.step()
            assert a.energy == b.energy
            assert a.variance == b.variance
            assert a.eloc_imag == b.eloc_imag
            assert a.n_unique == b.n_unique
            np.testing.assert_array_equal(
                ref.wf.get_flat_params(), mock.wf.get_flat_params()
            )
        assert all(s.transfers is None for s in ref.history)
        assert all(s.transfers is not None for s in mock.history)

    def test_transfer_contract(self, h2_problem):
        """Zero unplanned host transfers while sampling; exactly one tagged
        stage-2 and stage-6 transfer per rank per iteration."""
        vmc = _fresh_vmc(h2_problem, array_backend="mock")
        for _ in range(2):
            stats = vmc.step()
            sampling = stats.transfers["sampling"]
            unplanned = {t: n for t, n in sampling.get("to_host", {}).items()
                         if t != "sampling.probs"}
            assert unplanned == {}, f"unplanned sampling transfers: {unplanned}"
            post = stats.transfers["post_sampling"]["to_host"]
            assert post["stage2.amps"] == 1
            assert post["stage6.grad"] == 1


# ------------------------------------------------------------ lint self-test
class TestBackendLint:
    @pytest.fixture()
    def lint_file(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "tools" / "lint_backend.py"
        spec = importlib.util.spec_from_file_location("lint_backend", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.lint_file

    def test_flags_bare_numpy_and_np_dot(self, lint_file, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "x = np.zeros(3)\n"
            "# a comment mentioning numpy is fine\n"
            "s = 'np. in a string is fine'\n"
        )
        errors = lint_file(bad)
        assert len(errors) == 2  # the 'numpy' import and the 'np.' call
        assert any(":1:" in e for e in errors)
        assert any(":2:" in e for e in errors)

    def test_allows_host_np_and_numpy_method(self, lint_file, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "from repro.backend.host import host_np\n"
            "x = host_np.zeros(3)\n"
            "def numpy(self):\n"
            "    return self.data\n"
            "y = x.numpy if hasattr(x, 'numpy') else x\n"
        )
        assert lint_file(ok) == []

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

    def test_hot_path_files_are_clean(self, lint_file):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "lint_backend", root / "tools" / "lint_backend.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.CONTRACTION_FILES <= set(mod.HOT_PATH_FILES)
        for rel in mod.HOT_PATH_FILES:
            assert mod.lint_file(
                root / rel, contractions=rel in mod.CONTRACTION_FILES) == [], rel

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
        for rel in rule.paths + rule.exempt + tuple(f for f, _ in rule.allow):
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
        "src/repro/serve/deep/new_module.py",
    ])
    def test_module_level_scipy_is_refused_anywhere(self, lint_source, tree, rel, line):
        path = tree / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f'"""Docstring."""\nimport numpy as np\n{line}\n')
        errors = lint_source.lint(tree)
        assert violated(errors) == ["no-scipy"]
        assert errors[0].startswith(f"{rel}:3: ")
        assert lint_source.main(["lint_source", str(tree)]) == 1

    @pytest.mark.parametrize("rel", [
        "src/repro/hamiltonian/exact.py", "src/repro/chem/fci.py",
        "src/repro/chem/davidson.py",
    ])
    def test_function_local_scipy_is_refused_everywhere(self, lint_source, tree, rel):
        path = tree / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("def f():\n    import scipy.sparse.linalg as spla\n    return spla\n")
        errors = lint_source.lint(tree)
        assert violated(errors) == ["no-scipy"]
        assert errors[0].startswith(f"{rel}:2: ")

    def test_prose_about_scipy_passes(self, lint_source, tree):
        (tree / "src/repro/chem/davidson.py").write_text(
            '"""Faster than scipy.sparse.linalg.eigsh; gated against scipy.special."""\n'
            "x = 'import scipy'\n")
        assert lint_source.lint(tree) == []

    @pytest.mark.parametrize("rule,rel,line", [
        ("one-comm-accounting-site", "src/repro/core/engine.py", "comm.stats.add(nbytes)"),
        ("no-probing-no-second-path", "src/repro/core/vmc.py", "if hasattr(comm, 'rank'):"),
        ("no-probing-no-second-path", "src/repro/nn/x.py", "def f(use_cache=True): ..."),
        ("no-probing-no-second-path", "src/repro/serve/service.py",
         "return normalize_amplitude_table(build_amplitude_table(model.wf, batch))"),
        ("no-probing-no-second-path", "src/repro/core/local_energy.py",
         "def merge_amplitude_tables(a: AmplitudeTable, b: AmplitudeTable):"),
        ("no-probing-no-second-path", "src/repro/core/local_energy.py",
         "        rec = self._as_records(keys[flat])"),
        ("no-probing-no-second-path", "src/repro/chem/properties.py",
         "sign = _jw_sign_between(keys[src], p, q)"),
        ("one-key-record-view", "src/repro/core/local_energy.py",
         'self._record_dtype = xp.dtype([(f"w{i}", uint64) for i in range(k)])'),
        ("one-key-record-view", "src/repro/parallel/codec.py",
         "rec = keys.view(np.dtype([('hi', np.uint64), ('lo', np.uint64)]))"),
        ("eloc-one-lookup", "src/repro/core/local_energy.py",
         "maybe = xp.flatnonzero(member[self._hash(keys) >> shift])"),
        ("eloc-one-lookup", "src/repro/core/local_energy.py",
         "ratios = xp.exp(table.log_amps[idx[s_hit, g_hit]] - la_x[s_hit])"),
        ("eloc-one-lookup", "src/repro/core/local_energy.py",
         "contrib = coef * np.exp(table.log_amps[rows] - la_self[s_hit])"),
        ("eloc-one-fuse", "src/repro/core/local_energy.py",
         "coef = xp.bincount(pair_of_term, weights=signed, minlength=len(s_hit))"),
        ("eloc-one-fuse", "src/repro/core/local_energy.py",
         "        return np.bincount(pair_of_term, weights=terms)"),
        ("arena-owns-the-flat-buffers", "src/repro/optim/adamw.py",
         "flat = xp.concatenate(parts)"),
        ("stage5-writes-into-the-arena", "src/repro/core/engine.py", "wf.set_flat_grads(g)"),
        ("tape-only-in-autograd", "src/repro/core/engine.py",
         "(Tensor(coeff_amp) * wf.log_prob(bits)).sum().backward()"),
        ("tape-only-in-autograd", "src/repro/core/engine.py", "loss.backward(grad)"),
        ("tape-only-in-autograd", "src/repro/core/pretrain.py", "(-logp).backward()"),
        ("tape-only-in-autograd", "src/repro/core/pretrain.py",
         "loss = Tensor(-np.ones(len(bits))) * logp"),
        ("tape-only-in-autograd", "src/repro/nn/phase.py",
         "        x = Tensor(2.0 * bits - 1.0)"),
        ("tape-only-in-autograd", "src/repro/nn/module.py",
         "        super().__init__(data, requires_grad=True, name=name)"),
        ("tape-only-in-autograd", "src/repro/serve/scheduler.py", "        with no_grad():"),
        ("tape-only-in-autograd", "src/repro/nn/inference.py",
         "from repro.autograd import no_grad"),
        ("tape-only-in-autograd", "src/repro/nn/layers.py",
         "from repro.autograd.oracle import layer_norm, linear"),
        ("tape-only-in-autograd", "src/repro/core/engine.py", "    import repro.autograd"),
        ("tape-only-in-autograd", "src/repro/core/wavefunction.py",
         "from repro.autograd.oracle import picked_log_softmax"),
        ("tape-only-in-autograd", "src/repro/core/wavefunction.py",
         "from repro.autograd import Tensor, oracle"),
        ("tape-only-in-autograd", "src/repro/core/pretrain.py",
         "from repro.autograd import oracle"),
        ("tape-only-in-autograd", "src/repro/core/wavefunction.py",
         "from repro.autograd import oracle"),
        ("one-prefix-tree-pass", "src/repro/nn/transformer.py",
         "    def prefix_logits(self, tokens, node_at, rep_row, level) -> Tensor:"),
        ("one-prefix-tree-pass", "src/repro/core/wavefunction.py",
         "logits = self.amplitude.prefix_logits(ordered, node_at, rep_row, level)"),
        ("one-prefix-tree-pass", "src/repro/autograd/oracle.py",
         "def rows_from_nodes(x: Tensor, node_at, rep_row, level) -> Tensor:"),
        ("one-prefix-tree-pass", "src/repro/nn/attention.py",
         "return self.proj(nodes_from_rows(att, rep_row, level))"),
        ("optimizer-and-plan-own-their-numbers", "src/repro/core/trainer.py", "warmup = 150"),
        ("optimizer-and-plan-own-their-numbers", "src/repro/core/vmc.py",
         "plan = ElocPlan(comp, group_chunk=512)"),
        ("driver-compares-no-backend-name", "src/repro/api/driver.py",
         'if p.backend == "threads":'),
        ("backend-classes-are-their-factories", "src/repro/api/driver.py",
         "def build_thread_backend(spec):"),
        ("no-component-registry", "src/repro/api/registry.py",
         'ANSATZE = ComponentRegistry("ansatz")'),
        ("no-device-adapter-without-a-device", "src/repro/nn/x.py", "import torch"),
        ("no-array-backend-seam", "src/repro/core/engine.py",
         "    with use_backend(engine.array_backend):"),
        ("no-array-backend-seam", "src/repro/core/sampler.py",
         '        probs = active_backend().to_host(probs, tag="sampling.probs")'),
        ("no-array-backend-seam", "src/repro/nn/layers.py",
         "from repro.backend.host import host_np"),
        ("no-array-backend-seam", "src/repro/serve/service.py",
         "        backend = get_backend(self.config.backend)"),
        ("no-array-backend-seam", "src/repro/core/engine.py",
         '    fused = backend.to_host(arena.payload, tag="stage6.grad")'),
        ("no-array-backend-seam", "src/repro/core/vmc.py",
         "        self.array_backend = array_backend"),
        ("no-array-backend-seam", "src/repro/nn/attention.py",
         "from repro.backend import xp"),
        ("one-sampler", "src/repro/core/x.py", "SAMPLERS = {}"),
        ("one-sampler", "src/repro/parallel/x.py", "from mpi4py import MPI"),
        ("no-sampler-field", "src/repro/api/spec.py", "    sampler: str = 'bas'"),
        ("one-optimizer", "src/repro/api/registry.py",
         'OPTIMIZERS = ComponentRegistry("optimizer")'),
        ("one-optimizer", "src/repro/api/builtins.py",
         'register_optimizer("sr", build_sr)'),
        ("one-optimizer", "src/repro/core/engine.py",
         "if self.optimizer.single_rank_reason:"),
        ("one-optimizer", "src/repro/core/sr.py", "class StochasticReconfiguration:"),
        ("one-optimizer", "src/repro/core/sr.py",
         "j_logp, j_phi = per_sample_jacobians(wf, bits)"),
        ("one-optimizer", "src/repro/optim/schedule.py", "class NoamSchedule:"),
        ("one-optimizer", "src/repro/optim/schedule.py", "ConstantSchedule(opt, lr)"),
        ("one-optimizer", "src/repro/optim/adamw.py", "class SGD:"),
        ("one-amplitude-protocol", "src/repro/core/wavefunction.py",
         'if hasattr(self.amplitude, "make_session"):'),
        ("one-amplitude-protocol", "src/repro/nn/inference.py",
         'length = n if getattr(model, "fixed_length", False) else k + 1'),
        ("one-amplitude-protocol", "src/repro/core/engine.py",
         'd_model = getattr(wf.amplitude, "d_model", 16)'),
        ("one-amplitude-protocol", "src/repro/serve/service.py",
         "return make_inference_session(self.amplitude, batch_size)"),
        ("one-amplitude-protocol", "src/repro/api/builtins.py",
         'build_qiankunnet(n, 1, 1, amplitude_type="made")'),
        ("one-amplitude-protocol", "src/repro/nn/made.py", "class MADEAmplitude(Module):"),
        ("one-decode-kernel", "src/repro/nn/inference.py", "class KVCache:"),
        ("one-decode-kernel", "src/repro/nn/attention.py",
         "    def step(self, x, cache: KVCache):"),
        ("one-decode-kernel", "src/repro/nn/layers.py", "    def step(self, x):"),
        ("one-parallel-path", "src/repro/api/spec.py", "    comm_codec: bool = True"),
        ("one-parallel-path", "src/repro/api/spec.py", '    eloc_partition: str = "balanced"'),
        ("one-parallel-path", "src/repro/core/engine.py",
         'ELOC_PARTITIONS = ("balanced", "contiguous")'),
        ("one-parallel-path", "src/repro/core/engine.py",
         "    if self.comm_shm and not use_shm:"),
        ("one-parallel-path", "src/repro/parallel/multiprocess.py",
         "def run_spmd_processes(size, fn, *, shm_threshold=0):"),
        ("one-parallel-path", "src/repro/parallel/multiprocess.py",
         "class PipeTransport:"),
        ("one-parallel-path", "src/repro/parallel/multiprocess.py",
         "SHM_THRESHOLD = 1 << 16"),
        ("one-parallel-path", "src/repro/parallel/multiprocess.py",
         "from multiprocessing import shared_memory"),
        ("one-parallel-path", "src/repro/parallel/comm.py", "    borrows = True"),
        ("one-parallel-path", "src/repro/parallel/multiprocess.py",
         "class ThreadTransport:"),
        ("one-parallel-path", "src/repro/core/engine.py",
         "        from repro.parallel.fake_mpi import run_spmd"),
        ("one-serving-process", "src/repro/serve/net.py",
         "from repro.parallel.rendezvous import send_frame"),
        ("one-serving-process", "src/repro/serve/net.py",
         'argv = [sys.executable, "-m", "repro", "serve-worker", run_dir]'),
        ("one-serving-process", "src/repro/serve/net.py",
         "        self._ring = HashRing(replicas=64)"),
        ("one-serving-process", "src/repro/serve/service.py",
         "        with SessionPool(wf.amplitude).lease(wf):"),
        ("one-serving-process", "src/repro/core/wavefunction.py",
         "        self.session_factory = None"),
        ("one-npz-writer", "src/repro/core/checkpoint.py", "        np.savez(f, **payload)"),
        ("no-probing-no-second-path", "src/repro/core/vmc.py",
         "        self.comm_baseline: np.ndarray | None = None"),
        ("no-probing-no-second-path", "src/repro/core/engine.py",
         '        out["global_keys"] = keys'),
        ("no-probing-no-second-path", "src/repro/parallel/codec.py", "_FLAG_DIFF = 1"),
    ])
    def test_relocated_grep_clauses_still_bite(self, lint_source, tree, rule, rel, line):
        path = tree / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(line + "\n")
        assert rule in violated(lint_source.lint(tree))

    def test_the_phase_evaluator_is_not_a_layer_step(self, lint_source, tree):
        """``PhaseMLP.step`` (bits in, phases out) is the no-grad phase
        evaluator, not a decode step of a layer."""
        (tree / "src/repro/nn/phase.py").write_text("    def step(self, bits):\n")
        assert lint_source.lint(tree) == []

    def test_the_log_pi_vjp_and_the_tape_elsewhere_pass(self, lint_source, tree):
        """Stage 5 and pretraining call the pair and may say so; the tape
        itself stays legal where the oracle lives, and the wavefunction's
        three delegators each import it in their own body."""
        for rel, text in {
            "src/repro/core/engine.py":
                '    """... off the tape.  No graph is built."""\n'
                "    wf.log_prob_vjp(chunk.bits, w_norm * (eloc.real - e_mean))\n",
            "src/repro/core/pretrain.py":
                "logp = float(wf.log_prob_vjp(bits, -np.ones(len(bits))).sum())\n",
            "src/repro/core/wavefunction.py":
                "        from repro.autograd import oracle\n"
                "        return oracle.log_prob(self, bits)\n"
                "        return oracle.forward(self.phase, bits)\n",
            "src/repro/nn/module.py":
                '"""The taped forward is the oracle\'s (``repro.autograd.oracle``)."""\n',
            "src/repro/autograd/gradcheck.py": "out.sum().backward()\n",
            "src/repro/autograd/oracle.py":
                "from repro.autograd.tensor import Tensor\n"
                "        super().__init__(param.data, requires_grad=True, name=param.name)\n",
        }.items():
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_text(text)
        assert lint_source.lint(tree) == []

    def test_the_key_record_view_lives_in_bitstrings(self, lint_source, tree):
        """The one structured record dtype of a packed key is built by
        ``utils/bitstrings.py``; a plan that uses the view passes."""
        (tree / "src/repro/utils/bitstrings.py").write_text(
            '    return np.dtype([(f"w{i}", np.uint64) for i in range(n_words)])\n')
        (tree / "src/repro/core/local_energy.py").write_text(
            "        rec = key_records(keys.take(flat, axis=0))\n")
        assert lint_source.lint(tree) == []

    def test_the_psi_product_and_the_reference_lookup_pass(self, lint_source, tree):
        """The ψ product's two exponentials and the reference's dense
        ``nonzero`` are what the local-energy module is made of; the ratio
        form stays legal outside it (the scalar Fig. 10 rungs)."""
        (tree / "src/repro/core/local_energy.py").write_text(
            "    return xp.exp(log_amps - m)\n"
            "    inv_x_all = xp.exp(m - table.log_amps[idx_self])\n"
            "    psi = _shifted_psi(table.log_amps[idx[s_hit, g_hit]], m)\n"
            "    s_hit, g_hit = xp.nonzero(idx >= 0)\n"
            '    """Slot map: no membership map, no per-hit ratio."""\n')
        (tree / "src/repro/core/observables.py").write_text(
            "r = np.exp(table.log_amps[i] - la_x)\n")
        assert lint_source.lint(tree) == []

    def test_the_segment_sum_and_the_per_sample_bins_pass(self, lint_source, tree):
        """The FUSE's ``reduceat``, the per-sample ``bincount`` of the ψ
        product and a pair id by itself are legal in the local-energy
        module; the pair-id ``bincount`` stays legal outside it (the scalar
        Fig. 10 rungs live in benchmarks/)."""
        (tree / "src/repro/core/local_energy.py").write_text(
            "    coef = xp.add.reduceat(signed, offs)\n"
            "    return xp.add.reduceat(self.pattern_table.take(slot), offs)\n"
            "    acc_re += xp.bincount(s_hit, weights=coef * psi.real, minlength=b)\n"
            "    pair_of_term = xp.repeat(xp.arange(len(s_hit)), sizes)\n"
            '    """No weighted bincount over a pair id."""\n')
        (tree / "src/repro/core/observables.py").write_text(
            "coef = np.bincount(pair_of_term, weights=signed)\n")
        assert lint_source.lint(tree) == []

    def test_the_execution_backend_passes_the_seam_rule(self, lint_source, tree):
        """The seam rule bans the array-module proxy, not the Fig. 4
        execution backends that share the word."""
        (tree / "src/repro/api/driver.py").write_text(
            "    backend = materialize_backend(spec)\n")
        (tree / "src/repro/core/vmc.py").write_text(
            "        self.backend = backend or SerialBackend()\n"
            "        vmc.backend.close()\n")
        assert lint_source.lint(tree) == []

    def test_comm_accounting_is_allowed_in_comm_py(self, lint_source, tree):
        (tree / "src/repro/parallel/comm.py").write_text("self.stats.add(n)\n")
        assert lint_source.lint(tree) == []

    def test_every_rule_is_named_once_and_says_why(self, lint_source):
        names = [r.name for r in lint_source.RULES]
        assert len(set(names)) == len(names)
        assert all(r.why and r.paths for r in lint_source.RULES)


# What a serial VMC process never loads (DESIGN.md "What a rank pays before
# iteration 1"): transports, serving, the tape, reference chemistry and the
# observables.  A name covers its submodules.
OFF_THE_RUN_PATH = (
    "repro.serve.scheduler", "repro.serve.service", "repro.serve.net",
    "repro.parallel.cluster", "repro.parallel.rendezvous", "repro.parallel.multiprocess",
    "repro.autograd",
    "repro.chem.ccsd", "repro.chem.ci", "repro.chem.properties",
    "repro.hamiltonian.operators",
    "repro.core.observables",
)
LAZY_PACKAGES = ("repro", "repro.core", "repro.chem", "repro.hamiltonian",
                 "repro.parallel", "repro.serve", "repro.utils")


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter on ``src/`` alone; fail with its stderr."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": "",
                               "NNQS_NO_CACHE": "1", "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestImportGraph:
    def test_a_serial_vmc_step_loads_nothing_off_the_run_path(self):
        run_fresh(
            "import sys\n"
            "import repro.api, repro.core.engine\n"
            "from repro.chem import build_problem\n"
            "from repro.core import VMC, VMCConfig, NoamAdamW, build_qiankunnet\n"
            "prob = build_problem('H2', 'sto-3g')\n"
            "wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=0)\n"
            "vmc = VMC(wf, prob.hamiltonian, VMCConfig(n_samples=1000, seed=0),\n"
            "          optimizer=NoamAdamW(wf, warmup=10))\n"
            "vmc.step()\n"
            f"off = {OFF_THE_RUN_PATH!r}\n"
            "bad = sorted(m for m in sys.modules\n"
            "             if any(m == p or m.startswith(p + '.') for p in off))\n"
            "assert not bad, bad\n")

    def test_every_exported_name_resolves(self):
        """Each lazy package's ``__all__`` resolves and is listed by ``dir``;
        a name that is also a submodule's stays the function after the
        submodule is imported."""
        run_fresh(
            "import importlib\n"
            f"for name in {LAZY_PACKAGES!r}:\n"
            "    pkg = importlib.import_module(name)\n"
            "    for attr in pkg.__all__:\n"
            "        getattr(pkg, attr)\n"
            "    assert set(pkg.__all__) <= set(dir(pkg)), name\n"
            "for pkg, attr in (('repro.core', 'local_energy'), ('repro.chem', 'davidson'),\n"
            "                  ('repro.hamiltonian', 'jordan_wigner')):\n"
            "    module = importlib.import_module(f'{pkg}.{attr}')\n"
            "    assert getattr(importlib.import_module(pkg), attr) is getattr(module, attr)\n"
            "import repro\n"
            "assert repro.core.observables.__name__ == 'repro.core.observables'\n")

    def test_importing_the_package_does_not_import_scipy(self):
        run_fresh("import repro, repro.api, repro.chem, repro.core, repro.serve, sys; "
                  "bad = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                  "assert not bad, bad[:5]")

    def test_the_davidson_fci_path_does_not_import_scipy(self):
        """BeH2/STO-3G (1225 determinants) takes run_fci's Davidson branch."""
        run_fresh("import sys; from repro.chem import build_problem, run_fci; "
                  "fci = run_fci(build_problem('BeH2', 'sto-3g').hamiltonian); "
                  "assert fci.dim == 1225, fci.dim; "
                  "bad = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                  "assert not bad, bad[:5]")

"""The paper's core contribution: QiankunNet ansatz, BAS sampler, VMC."""
from repro._lazy import lazy_exports

# ``local_energy`` is also a submodule's name, so it is bound now (``repro._lazy``).
from repro.core.local_energy import local_energy

_EXPORTS = {
    "ParticleNumberConstraint": ".constraints",
    "NNQSWavefunction": ".wavefunction",
    "build_qiankunnet": ".wavefunction",
    "SampleBatch": ".sampler",
    "BASTreeState": ".sampler",
    "autoregressive_sample": ".sampler",
    "batch_autoregressive_sample": ".sampler",
    "bas_prefix_sweep": ".sampler",
    "AmplitudeTable": ".local_energy",
    "ElocPlan": ".local_energy",
    "build_amplitude_table": ".local_energy",
    "compile_eloc_plan": ".local_energy",
    "extend_amplitude_table": ".local_energy",
    "grow_amplitude_table": ".local_energy",
    "local_energy": ".local_energy",
    "local_energy_planned": ".local_energy",
    "local_energy_vectorized": ".local_energy",
    "NoamAdamW": ".engine",
    "VMC": ".vmc",
    "VMCConfig": ".vmc",
    "VMCStats": ".vmc",
    "default_ns_schedule": ".vmc",
    "pretrain_to_reference": ".pretrain",
    "load_checkpoint": ".checkpoint",
    "save_checkpoint": ".checkpoint",
    "load_model_snapshot": ".checkpoint",
    "save_model_snapshot": ".checkpoint",
    "EstimateResult": ".observables",
    "ObservableSet": ".observables",
    "estimate": ".observables",
    "fidelity": ".observables",
    "occupations": ".observables",
    "sector_expectation": ".observables",
    "TrainConfig": ".trainer",
    "Trainer": ".trainer",
    "TrainReport": ".trainer",
    "one_rdm_sampled": ".observables",
    "ExtrapolationResult": ".diagnostics",
    "correlation_energy_fraction": ".diagnostics",
    "detect_plateau": ".diagnostics",
    "v_score": ".diagnostics",
    "zero_variance_extrapolation": ".diagnostics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

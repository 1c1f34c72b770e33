"""The paper's core contribution: QiankunNet ansatz, BAS sampler, VMC."""
from repro.core.constraints import ParticleNumberConstraint
from repro.core.wavefunction import NNQSWavefunction, build_qiankunnet
from repro.core.sampler import (
    SampleBatch,
    BASTreeState,
    autoregressive_sample,
    batch_autoregressive_sample,
    bas_prefix_sweep,
)
from repro.core.local_energy import (
    AmplitudeTable,
    ElocPlan,
    build_amplitude_table,
    compile_eloc_plan,
    extend_amplitude_table,
    merge_amplitude_tables,
    normalize_amplitude_table,
    local_energy,
    local_energy_planned,
    local_energy_vectorized,
)
from repro.core.engine import NoamAdamW
from repro.core.vmc import VMC, VMCConfig, VMCStats, default_ns_schedule
from repro.core.pretrain import pretrain_to_reference
from repro.core.checkpoint import (
    load_checkpoint,
    load_model_snapshot,
    save_checkpoint,
    save_model_snapshot,
)
from repro.core.observables import (
    EstimateResult,
    ObservableSet,
    estimate,
    fidelity,
    occupations,
    one_rdm_sampled,
    sector_expectation,
)
from repro.core.diagnostics import (
    ExtrapolationResult,
    correlation_energy_fraction,
    detect_plateau,
    v_score,
    zero_variance_extrapolation,
)
from repro.core.trainer import TrainConfig, Trainer, TrainReport

__all__ = [
    "ParticleNumberConstraint",
    "NNQSWavefunction",
    "build_qiankunnet",
    "SampleBatch",
    "BASTreeState",
    "autoregressive_sample",
    "batch_autoregressive_sample",
    "bas_prefix_sweep",
    "AmplitudeTable",
    "ElocPlan",
    "build_amplitude_table",
    "compile_eloc_plan",
    "extend_amplitude_table",
    "merge_amplitude_tables",
    "normalize_amplitude_table",
    "local_energy",
    "local_energy_planned",
    "local_energy_vectorized",
    "NoamAdamW",
    "VMC",
    "VMCConfig",
    "VMCStats",
    "default_ns_schedule",
    "pretrain_to_reference",
    "load_checkpoint",
    "save_checkpoint",
    "load_model_snapshot",
    "save_model_snapshot",
    "EstimateResult",
    "ObservableSet",
    "estimate",
    "fidelity",
    "occupations",
    "sector_expectation",
    "TrainConfig",
    "Trainer",
    "TrainReport",
    "one_rdm_sampled",
    "ExtrapolationResult",
    "correlation_energy_fraction",
    "detect_plateau",
    "v_score",
    "zero_variance_extrapolation",
]

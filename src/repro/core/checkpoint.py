"""Checkpointing: save/restore wavefunction parameters and VMC state.

Long VMC runs (the paper uses up to 1e5 iterations) need resumable state;
the checkpoint stores the flat parameter vector, the optimizer's state, the
iteration counter, the stats history and the RNG bit-generator state in a
single ``.npz`` file, so a resumed run continues bit-identically to an
uninterrupted one.

The *model snapshot* (``save_model_snapshot`` / ``load_model_snapshot``) is
the wavefunction-only subset of the same format: flat parameters plus the
``build_qiankunnet`` spec needed to rebuild the network from scratch.  It is
the unit of exchange between training and the serving layer — the
:class:`~repro.serve.ModelRegistry` stores one snapshot per published
version, and ``save_checkpoint`` embeds the same fields so any checkpoint
can be published directly.

Both are written by :func:`write_npz`: numpy's ``.npz`` layout, drawn
straight from each array's own buffer; the payload references the arena's
theta and the optimizer's moments in place, so writing an artifact costs no
model-sized copy.  Both go through ``atomic_write``: a kill mid-write leaves
the previous file intact, never a torn one.
"""
from __future__ import annotations

import inspect
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.core.vmc import VMC, VMCStats
from repro.utils.atomic import atomic_write

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_model_snapshot",
    "load_model_snapshot",
    "snapshot_payload",
    "restore_rng",
    "write_npz",
]

SNAPSHOT_FORMAT = 2  # bumped when the on-disk layout changes

# The VMCStats columns stored one array each.  comm_bytes / comm_bytes_wire
# (-1 for the serial backend's None) and per_rank_unique (JSON) are separate.
_HISTORY_FIELDS = (
    "iteration", "energy", "variance", "n_unique", "n_samples", "lr", "eloc_imag",
    "wall_time", "time_sampling", "time_local_energy", "time_gradient",
)


# --------------------------------------------------------------------- writer
def write_npz(file, arrays: dict) -> None:
    """Write ``arrays`` to the open binary ``file`` in the layout numpy's
    ``savez`` writes and ``np.load`` reads: one uncompressed ZIP entry
    ``<key>.npy`` per array, a format-1.0 ``.npy`` header, then the array's
    own buffer through a ``memoryview`` — no ``tobytes()``, no copy.  Every
    array must be C-contiguous (``memoryview.cast`` refuses any other)."""
    with zipfile.ZipFile(file, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for key, value in arrays.items():
            arr = np.asarray(value)
            if arr.dtype.hasobject:  # its buffer holds pointers, not values
                raise TypeError(f"{key}: an object array needs pickling; not written")
            # force_zip64: the local header is written before the size is
            # known, so it must have room for any size (as numpy's savez does).
            with zf.open(f"{key}.npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array_header_1_0(
                    entry, np.lib.format.header_data_from_array_1_0(arr))
                entry.write(memoryview(arr).cast("B"))


def _npz_path(path: str | Path) -> Path:
    """``path`` with ``.npz`` appended if missing (numpy's savez convention)."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


# --------------------------------------------------------------- wavefunction
def snapshot_payload(wf, metadata: dict | None = None) -> dict:
    """The registry-compatible snapshot fields of one wavefunction.

    Requires the wavefunction to carry a ``spec`` (recorded by
    ``build_qiankunnet``) so :func:`load_model_snapshot` can rebuild the
    network without any out-of-band information.  ``params`` is the arena's
    theta itself, not a copy: write the payload before the next update.
    """
    spec = getattr(wf, "spec", None)
    if spec is None:
        raise ValueError(
            "wavefunction has no build spec; construct it with "
            "build_qiankunnet (or set wf.spec) to make it snapshottable"
        )
    payload = {
        "format": np.array(SNAPSHOT_FORMAT),
        "params": wf.arena().theta,
        "spec_json": np.array(json.dumps(spec)),
    }
    if metadata is not None:
        payload["metadata_json"] = np.array(json.dumps(metadata))
    return payload


def save_model_snapshot(wf, path: str | Path, metadata: dict | None = None) -> None:
    """Write a self-contained wavefunction snapshot (params + rebuild spec)
    to ``path`` (``.npz`` appended if missing), atomically."""
    payload = snapshot_payload(wf, metadata)
    with atomic_write(_npz_path(path), "wb") as f:
        write_npz(f, payload)


def load_model_snapshot(path: str | Path):
    """Rebuild a wavefunction from a snapshot; returns ``(wf, metadata)``.
    A spec key ``build_qiankunnet`` does not take (any more) is a
    ``ValueError`` naming file and key, raised before anything is built."""
    from repro.core.wavefunction import build_qiankunnet

    data = np.load(Path(path))
    if "spec_json" not in data:
        raise ValueError(f"{path} is not a model snapshot (no spec_json)")
    spec = json.loads(data["spec_json"].item())
    unknown = sorted(set(spec) - set(inspect.signature(build_qiankunnet).parameters))
    if unknown:
        raise ValueError(
            f"{path}: snapshot spec has key(s) build_qiankunnet does not take: "
            f"{', '.join(unknown)} (written by another version of this code?)"
        )
    spec["phase_hidden"] = tuple(spec["phase_hidden"])
    wf = build_qiankunnet(**spec)
    wf.set_flat_params(data["params"])
    metadata = (
        json.loads(data["metadata_json"].item()) if "metadata_json" in data else {}
    )
    return wf, metadata


# ------------------------------------------------------------------ VMC state
def _rng_payload(rng: np.random.Generator) -> np.ndarray:
    """JSON-serialized bit-generator state (PCG64 state ints are arbitrary
    precision, so JSON — not a fixed-width array — is the right container)."""
    return np.array(json.dumps(rng.bit_generator.state))


def restore_rng(state_json: str) -> np.random.Generator:
    """Rebuild a Generator whose stream continues exactly where it stopped.

    The file names the bit generator; only numpy's ``BitGenerator`` classes
    are instantiated, anything else is a ``ValueError`` naming ``rng_state``.
    """
    try:
        state = json.loads(state_json)
        name = state["bit_generator"]
        known = {c.__name__: c for c in np.random.BitGenerator.__subclasses__()}
        if name not in known:
            raise ValueError(f"{name!r} is not a numpy BitGenerator")
        bit_gen = known[name]()
        bit_gen.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint rng_state is unusable: {exc}") from None
    return np.random.Generator(bit_gen)


def save_checkpoint(vmc: VMC, path: str | Path) -> None:
    """Write the full VMC state to ``path`` (``.npz`` appended if missing),
    atomically: a kill mid-save leaves the previous checkpoint intact."""
    payload = {
        "iteration": np.array(vmc.iteration),
        "rng_state": _rng_payload(vmc.rng),
        # The optimizer's state under its own keys: opt_t / opt_m / opt_v /
        # sched_i; the moments are the live arrays, written as they lie.
        **vmc.optimizer.state_views(),
    }
    for f in _HISTORY_FIELDS:
        payload[f"hist_{f}"] = np.array([getattr(s, f) for s in vmc.history])
    payload["hist_comm_bytes"] = np.array(
        [-1 if s.comm_bytes is None else int(s.comm_bytes) for s in vmc.history]
    )
    payload["hist_comm_bytes_wire"] = np.array(
        [-1 if s.comm_bytes_wire is None else int(s.comm_bytes_wire)
         for s in vmc.history]
    )
    payload["hist_per_rank_unique"] = np.array(
        json.dumps([s.per_rank_unique for s in vmc.history])
    )
    try:
        payload.update(snapshot_payload(vmc.wf))
    except ValueError:
        # Hand-built wavefunction without a spec: still checkpointable,
        # just not publishable to a model registry.
        payload["params"] = vmc.wf.arena().theta
    with atomic_write(_npz_path(path), "wb") as f:
        write_npz(f, payload)


def _parse_history(data) -> list[VMCStats]:
    """The stored ``VMCStats`` rows (``best_energy()`` sees pre-resume iterations)."""
    cols = {f: data[f"hist_{f}"] for f in _HISTORY_FIELDS}
    comm, wire = data["hist_comm_bytes"], data["hist_comm_bytes_wire"]
    per_rank = json.loads(data["hist_per_rank_unique"].item())
    return [
        VMCStats(
            **{f: col[i].item() for f, col in cols.items()},  # int64 / float64
            comm_bytes=None if comm[i] < 0 else int(comm[i]),
            per_rank_unique=per_rank[i],
            comm_bytes_wire=None if wire[i] < 0 else int(wire[i]),
        )
        for i in range(len(comm))
    ]


def load_checkpoint(vmc: VMC, path: str | Path) -> None:
    """Restore parameters, optimizer, RNG and history into an existing VMC."""
    data = np.load(Path(path))
    if "hist_energy" not in data:  # checked before anything of vmc is touched
        raise ValueError(
            f"{path} has no 'hist_energy' column: not a format-"
            f"{SNAPSHOT_FORMAT} checkpoint (energies-only files are not read)"
        )
    params = data["params"]
    if params.size != vmc.wf.num_parameters():
        raise ValueError(
            f"{path} holds {params.size} parameters, the model has "
            f"{vmc.wf.num_parameters()}: a checkpoint of another architecture"
        )
    # Everything the file holds is parsed into locals first, and the
    # optimizer checks its own arrays before its first write: a refused file
    # changes nothing.
    history = _parse_history(data)
    rng = restore_rng(data["rng_state"].item())
    iteration = int(data["iteration"])
    vmc.optimizer.load_state(data)
    vmc.wf.set_flat_params(params)
    vmc.iteration = iteration
    vmc.history = history
    vmc.rng = rng

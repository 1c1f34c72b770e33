"""Versioned model snapshots: the contract between training and serving.

Training publishes immutable snapshots; serving clients pin a version.  The
pinning rule exists because every derived artifact — the per-version
amplitude tables of the service, any cached ``AmplitudeTable`` — is only
valid for one parameter vector: Algorithm 2's wf_lut stores ``log Psi``
values, and mixing entries across parameter versions silently corrupts the
local-energy ratios.  Keying everything by version makes staleness
structurally impossible instead of a discipline.

On disk a registry is a directory of ``v<NNNNNN>.npz`` model snapshots
(``core/checkpoint.py`` format: flat params + rebuild spec) plus a
``manifest.json`` written atomically (temp file + rename), so a service
polling :meth:`ModelRegistry.latest_version` never observes a torn write
while a trainer publishes.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.checkpoint import load_model_snapshot, save_model_snapshot
from repro.utils.atomic import atomic_write

__all__ = ["ModelRegistry"]

_MANIFEST = "manifest.json"


class ModelRegistry:
    """A directory of immutable, versioned wavefunction snapshots."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- manifest
    def _read_manifest(self) -> dict:
        path = self.root / _MANIFEST
        if not path.exists():
            return {"format": 1, "latest": None, "versions": {}}
        with open(path) as f:
            return json.load(f)

    def _write_manifest(self, manifest: dict) -> None:
        with atomic_write(self.root / _MANIFEST) as f:
            json.dump(manifest, f, indent=2, sort_keys=True)

    @contextmanager
    def _publish_lock(self):
        """Exclusive advisory lock serializing publishers across processes.

        The manifest rename is atomic for *readers*; this lock makes the
        read-claim-write sequence atomic for concurrent *writers* (two
        trainers publishing to one registry must not mint the same version).
        """
        with open(self.root / ".publish.lock", "w") as lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)

    # -------------------------------------------------------------- publish
    def publish(self, wf, metadata: dict | None = None) -> int:
        """Snapshot ``wf`` as the next version; returns the version number."""
        with self._publish_lock():
            manifest = self._read_manifest()
            version = (manifest["latest"] or 0) + 1
            filename = f"v{version:06d}.npz"
            # We hold the publish lock and this version is absent from the
            # manifest, so a file already at this path can only be the
            # orphan of a publish that crashed before its manifest write —
            # never visible to readers, safe to overwrite.
            save_model_snapshot(wf, self.root / filename, metadata)
            theta = wf.arena().theta  # hashed in place: the digest of its bytes
            manifest["versions"][str(version)] = {
                "file": filename,
                "n_params": int(theta.size),
                "params_sha256": hashlib.sha256(theta).hexdigest(),
                "published_at": time.time(),
                "metadata": metadata or {},
            }
            manifest["latest"] = version
            self._write_manifest(manifest)
            return version

    # --------------------------------------------------------------- access
    def versions(self) -> list[int]:
        return sorted(int(v) for v in self._read_manifest()["versions"])

    def latest_version(self) -> int | None:
        return self._read_manifest()["latest"]

    def _record(self, version: int) -> dict:
        manifest = self._read_manifest()
        rec = manifest["versions"].get(str(version))
        if rec is None:
            known = sorted(int(v) for v in manifest["versions"])
            raise KeyError(
                f"version {version} not in registry {self.root} "
                f"(known: {known})"
            )
        return rec

    def path(self, version: int) -> Path:
        return self.root / self._record(version)["file"]

    def metadata(self, version: int) -> dict:
        return self._record(version)["metadata"]

    def load(self, version: int | None = None):
        """Rebuild the snapshot; returns ``(wf, metadata)``.

        ``version=None`` loads the latest published version.  Parameters
        whose SHA-256 is not the one recorded at publish time (a file changed
        or damaged on disk) are a ``ValueError`` naming file and version.
        """
        if version is None:
            version = self.latest_version()
            if version is None:
                raise KeyError(f"registry {self.root} has no published versions")
        rec = self._record(version)
        path = self.root / rec["file"]
        wf, metadata = load_model_snapshot(path)
        digest = hashlib.sha256(wf.arena().theta).hexdigest()
        if digest != rec["params_sha256"]:
            raise ValueError(
                f"{path}: parameters of version {version} do not match the "
                f"params_sha256 recorded at publish ({digest} != "
                f"{rec['params_sha256']})"
            )
        return wf, metadata

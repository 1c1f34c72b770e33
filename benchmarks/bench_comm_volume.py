"""Sec. 3.2 communication-volume example: the C2/STO-3G ~173 MB iteration.

Checks the closed-form model against the paper's quoted parameters and
against bytes *measured* by ``Comm``'s ``CommStats`` counters during a real
2-rank iteration over the socket-pair mesh transport — both
the logical (uncompressed, what the paper's formulas predict) and the wire
volume after the typed/compressed comm layer (delta/varint keys + uint32
counts on ``stage2_samples``; on ``stage2_amps``, raw float64 log pi of each
rank's sampled rows and phi of its chunk, 16 B per unique row).

CI smoke: ``python benchmarks/bench_comm_volume.py --smoke`` runs two
2-rank C2 iterations and asserts the second's stage-2 samples wire volume
is <= 50% of the uncompressed model prediction for that payload.
"""
from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":  # bare-script invocation: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from reporting import format_table, registry
from repro.chem import build_problem
from repro.core import VMCConfig, build_qiankunnet, pretrain_to_reference
from repro.core.vmc import VMC
from repro.hamiltonian import compress_hamiltonian
from repro.parallel import ThreadBackend
from scaling import CommVolumeModel


def _measure_c2(n_samples: int = 10**5, n_steps: int = 2):
    """Run ``n_steps`` 2-rank C2 iterations; returns (vmc, backend, stats)."""
    prob = build_problem("C2", "sto-3g")
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=41)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=60, target_prob=0.2)
    backend = ThreadBackend(n_ranks=2, nu_star_per_rank=16)
    vmc = VMC(
        wf, compress_hamiltonian(prob.hamiltonian),
        VMCConfig(n_samples=n_samples, eloc_mode="sample_aware", seed=42),
        backend=backend,
    )
    stats = None
    for _ in range(n_steps):
        stats = vmc.step()
    backend.close()
    return prob, vmc, backend, stats


def test_comm_volume_paper_example(benchmark, full):
    # The paper's quoted configuration.
    model = CommVolumeModel(n_qubits=20, n_unique=27_000, n_ranks=64,
                            n_params=270_000)
    parts = model.breakdown()
    cparts = model.compressed_breakdown()
    rows = [
        ["paper example (model)", 20, 27_000, 64, 270_000,
         f"{parts['stage2_allgather_samples_MB']:.1f}",
         f"{parts['stage6_allreduce_gradients_MB']:.1f}",
         f"{parts['total_MB']:.1f}"],
        ["paper example (compressed model)", 20, 27_000, 64, 270_000,
         f"{cparts['stage2_allgather_samples_MB']:.1f}",
         f"{cparts['stage6_allreduce_gradients_MB']:.1f}",
         f"{cparts['total_MB']:.1f}"],
    ]

    # Measured: two real 2-rank iterations on C2, bytes from the mesh
    # transport's CommStats (the second iteration's are reported).
    prob, vmc, backend, s = _measure_c2()
    wf = vmc.wf
    measured = CommVolumeModel(prob.n_qubits, s.n_unique, 2,
                               wf.num_parameters())
    rows.append(
        ["C2 measured logical (CommStats)", prob.n_qubits, s.n_unique, 2,
         wf.num_parameters(), "-", "-", f"{s.comm_bytes / 1e6:.1f}"]
    )
    rows.append(
        ["C2 measured wire (codec)", prob.n_qubits, s.n_unique, 2,
         wf.num_parameters(), "-", "-", f"{s.comm_bytes_wire / 1e6:.1f}"]
    )
    rows.append(
        ["C2 model (same params)", prob.n_qubits, s.n_unique, 2,
         wf.num_parameters(), "-", "-", f"{measured.total_bytes / 1e6:.1f}"]
    )
    ch = backend.last_comm_stats.channels["stage2_samples"]
    amp = backend.last_comm_stats.channels["stage2_amps"]
    channel_rows = [
        ["stage2_samples (keys+counts)", f"{ch['logical'] / 1e6:.3f}",
         f"{ch['wire'] / 1e6:.3f}", f"{ch['logical'] / max(ch['wire'], 1):.1f}x"],
        ["stage2_amps (log pi + phi)", f"{amp['logical'] / 1e6:.3f}",
         f"{amp['wire'] / 1e6:.3f}", "1.0x"],
    ]
    registry.record(
        "comm_volume_sec32",
        format_table(
            "Sec. 3.2 — Per-iteration communication volume",
            ["configuration", "N", "N_u", "N_p", "M", "stage2 MB", "stage6 MB",
             "total MB"],
            rows,
            notes=(
                "Paper quotes 'about 173 MB' for the example row (our model: "
                f"{parts['total_MB']:.1f} MB). Measured CommStats bytes track the "
                "model; wire row = typed/compressed comm layer (delta/varint "
                "keys, uint32 counts)."
            ),
        )
        + "\n\n"
        + format_table(
            "Stage-2 channel split (C2, 2 ranks, second iteration)",
            ["channel", "logical MB", "wire MB", "compression"],
            channel_rows,
            notes="Amplitudes travel raw by design; the compressible payload "
                  "is the (keys, counts) channel the codec targets.",
        ),
    )
    assert 160 < parts["total_MB"] < 180
    assert s.comm_bytes_wire < s.comm_bytes
    assert ch["wire"] * 2 <= ch["logical"]
    benchmark(lambda: CommVolumeModel(20, 27_000, 64, 270_000).total_bytes)


def run_smoke(n_samples: int = 3 * 10**4) -> dict:
    """The CI gate: stage-2 samples wire <= 50% of the model prediction."""
    prob, vmc, backend, s = _measure_c2(n_samples=n_samples)
    ch = backend.last_comm_stats.channels["stage2_samples"]
    # The uncompressed model prediction for the keys+counts payload of this
    # exact iteration: packed key words + a 4-byte count per unique sample,
    # times N_p (the paper's accounting convention).
    key_words = (prob.n_qubits + 63) // 64
    predicted = s.n_unique * 2 * (8 * key_words + 4)
    result = {
        "n_unique": s.n_unique,
        "samples_logical": ch["logical"],
        "samples_wire": ch["wire"],
        "predicted_uncompressed": predicted,
        "comm_bytes": s.comm_bytes,
        "comm_bytes_wire": s.comm_bytes_wire,
    }
    registry.record(
        "comm_volume_smoke",
        format_table(
            "Comm-volume smoke — 2-rank C2, delta/varint codec",
            ["N_u", "samples logical B", "samples wire B",
             "model uncompressed B", "wire/model"],
            [[s.n_unique, ch["logical"], ch["wire"], predicted,
              f"{ch['wire'] / predicted:.2f}"]],
            notes="CI gate: stage-2 samples wire <= 50% of the uncompressed "
                  "model prediction (and of the measured logical volume).",
        ),
    )
    return result


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small-batch CI gate")
    parser.add_argument("--n-samples", type=int, default=None)
    args = parser.parse_args()
    n_samples = args.n_samples or (3 * 10**4 if args.smoke else 10**5)
    res = run_smoke(n_samples=n_samples)
    ratio = res["samples_wire"] / res["predicted_uncompressed"]
    assert res["samples_wire"] * 2 <= res["predicted_uncompressed"], (
        f"stage-2 samples wire {res['samples_wire']} B exceeds 50% of the "
        f"uncompressed model prediction {res['predicted_uncompressed']} B"
    )
    assert res["samples_wire"] * 2 <= res["samples_logical"], (
        "stage-2 samples wire volume is not >= 2x below the logical payload"
    )
    assert res["comm_bytes_wire"] < res["comm_bytes"]
    print(f"acceptance: stage2 samples wire {res['samples_wire']} B = "
          f"{ratio:.2f}x of model prediction "
          f"{res['predicted_uncompressed']} B (gate: <= 0.50), "
          f"logical {res['samples_logical']} B "
          f"({res['samples_logical'] / res['samples_wire']:.1f}x reduction)")

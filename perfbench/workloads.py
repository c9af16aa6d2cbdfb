"""The benchmark's workloads and the config each one writes from its seed.

Imports nothing heavy, so the set-up probe can time the real imports.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# The desk geometry: 64x64 modules of 6 px, 24 px blocks, 256 blocks a code.
GEOMETRY = {"rows": 64, "cols": 64, "module_px": 6, "block_px": 24}
BLOCKS_PER_CODE = (GEOMETRY["rows"] * GEOMETRY["module_px"] // GEOMETRY["block_px"]) * (
    GEOMETRY["cols"] * GEOMETRY["module_px"] // GEOMETRY["block_px"]
)
# The printer every train/attack/roc verb runs on.
TARGET_PRINTER = "SA"
# roc scores an authentic and a fake re-print of each test code, once for
# the model's estimates and once for the thresholding baseline's.
REPRINTS_PER_TEST_CODE = 4
# Codes per split of a toy-size run of a workload.
TOY_SPLIT = (2, 1, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    split: tuple[int, int, int]
    printers: tuple[str, ...]
    arch: str
    epochs: int

    @property
    def n_images(self) -> int:
        return sum(self.split)

    @property
    def scans(self) -> int:
        return self.n_images * len(self.printers)

    @property
    def train_blocks(self) -> int:
        return self.split[0] * BLOCKS_PER_CODE

    @property
    def test_codes(self) -> int:
        return self.split[2]


WORKLOADS = {
    w.name: w
    for w in (
        # Training dominates: forward, backward and Adam over six small
        # layers (371k parameters), bound by per-op overhead, not BLAS.
        # The channel does little: 70 scans plus 80 re-prints.
        Workload(
            "train-bn",
            "bn training dominates: six small layers, per-op overhead not BLAS",
            (40, 10, 20), ("SA",), "bn", 8,
        ),
        # Same data, wide layers: three 576x576 matmuls (997k parameters)
        # are BLAS-bound and Adam's state is 2.7x larger, so a change that
        # helps small ops but hurts wide matmuls (or the reverse) shows.
        Workload(
            "train-fc2",
            "fc2 training dominates: wide 576x576 matmuls are BLAS-bound, Adam state 2.7x bn's",
            (40, 10, 20), ("SA",), "fc2", 5,
        ),
        # The paper's 100/50/234 split scaled to 80 codes, four printers
        # and one epoch: the channel, image I/O, calibration on the largest
        # validation set and scoring of many test codes do the work.  The
        # only workload whose inputs share work: roc re-prints each
        # authentic code twice with the same seed.
        Workload(
            "scan-4printer",
            "four printers, paper split scaled to 80 codes, 1 epoch: channel, image I/O, "
            "calibration and re-print scoring dominate",
            (21, 11, 48), ("SA", "LX", "CA", "HP"), "bn", 1,
        ),
    )
}


def config_for(wl: Workload, seed: int, out_dir: Path) -> dict:
    """The pgclab config of a workload; its two seeds derive from seed."""
    rng = random.Random(seed)
    return {
        "out_dir": str(out_dir),
        "geometry": dict(GEOMETRY),
        "dataset": {"n_images": wl.n_images, "split": list(wl.split),
                    "seed": rng.randrange(2**31)},
        "printers": [{"id": p} for p in wl.printers],
        "training": {
            "arch": wl.arch,
            "epochs": wl.epochs,
            "batch_size": 128,
            "learning_rate": 0.001,
            "lam": 0.0,
            "regularizer": "none",
            "seed": rng.randrange(2**31),
        },
        "evaluation": {
            "measures": ["pearson", "hamming"],
            "target_pfa": [0.0, 0.01, 0.05, 0.1],
            "plots": True,
        },
    }


def write_config(wl: Workload, seed: int, path: Path, out_dir: Path) -> None:
    path.write_text(json.dumps(config_for(wl, seed, out_dir), indent=2, sort_keys=True) + "\n")


def workload_json(wl: Workload) -> str:
    return json.dumps(asdict(wl))


def workload_from_json(text: str) -> Workload:
    raw = json.loads(text)
    return Workload(**{**raw, "split": tuple(raw["split"]), "printers": tuple(raw["printers"])})

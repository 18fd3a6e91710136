"""Run-dir and phantom bytes pinned across commits.

The first two manifests hold the sha256 of every file ``run_pipeline`` writes for
``test_cli.small_spec()``:

- ``pinned_outputs.json``: the threshold backends and ``flatfield=estimate``;
- ``pinned_outputs_unet.json``: the U-Net cell and tracer backends, with tiny
  untrained models built from fixed seeds, so it pins the float32 inference bits
  of ``cells.txt``, ``tracer_L`` and ``tracer_mask``.

``pinned_phantom.json`` holds the sha256 of every tile and truth file that
``write_tile`` and ``GroundTruth.save`` write for ``small_spec(poisson=True,
vignette_corner=0.6)``, so it pins the generator's Poisson draws and vignette.

``pinned_train.json`` holds, in place of files, the sha256 of every float64
parameter and of the loss history after two seeded 30-step ``nnseg.train`` runs
(depth 2 with two input channels, depth 3 with one), so it pins the training
forward and backward bits.

Left out are ``report.txt`` (seconds) and ``stages.json``, whose keys hash the run's
own paths and the tiles' mtimes.  A change that alters output bytes on purpose
regenerates the manifest it moves, named as in ``RUNS``, and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_pinned_outputs.py unet

Each manifest records the numpy version and BLAS build it was made under.  The
threshold run calls no BLAS routine (``gaussian_blur`` sums its taps in a fixed
order), so its test skips only under another numpy; the U-Net's GEMMs may round
differently under another BLAS build too, so the unet test skips, naming both
builds, where either differs.  The phantom calls no BLAS routine either, so
its test skips only under another numpy (whose Poisson sampler may differ).
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from marmopipe import nnseg
from marmopipe.cli import run_pipeline
from rundigest import TIMINGS, file_digests
from test_cli import pipeline_config, small_spec, write_phantom

SKIP = TIMINGS + ("stages.json",)


def builds() -> dict:
    """numpy version and BLAS build, spelled as perfbench records them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def pinned_run(root: Path) -> dict[str, str]:
    write_phantom(root, small_spec())
    run_pipeline(pipeline_config(root, root / "truth", flatfield="estimate"))
    return file_digests(root / "run", skip=SKIP)


def pinned_unet_run(root: Path) -> dict[str, str]:
    write_phantom(root, small_spec())
    # seeds picked so that both outputs are partial: 3 cells, 7667 of 230400 mask pixels
    for name, channels, seed in (("cell", 1, 1), ("tracer", 2, 2)):
        nnseg.save_model(nnseg.init_unet(2, 4, channels, seed=seed, input_scale=1 / 65535.0),
                         root / f"{name}_model")
    run_pipeline(pipeline_config(root, root / "truth",
                                 cell_backend="unet", cell_model=str(root / "cell_model"),
                                 tracer_backend="unet", tracer_model=str(root / "tracer_model")))
    return file_digests(root / "run", skip=SKIP)


def pinned_phantom(root: Path) -> dict[str, str]:
    write_phantom(root, small_spec(poisson=True, vignette_corner=0.6))
    return {f"{sub}/{name}": digest for sub in ("tiles", "truth")
            for name, digest in file_digests(root / sub, skip=()).items()}


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def pinned_train(root: Path) -> dict[str, str]:
    digests = {}
    for depth, channels, n in ((2, 2, 52), (3, 1, 68)):
        rng = np.random.default_rng(depth)
        samples = []
        for _ in range(3):
            x = rng.uniform(0, 4000, (channels, n, n))
            samples.append(nnseg.TrainingSample(input=x, label=x[0] > 3000,
                                                weight=rng.random((n, n)) + 0.5))
        net = nnseg.init_unet(depth, 4, channels, seed=depth, input_scale=1 / 2000)
        trained, history = nnseg.train(net, samples, steps=30, learning_rate=0.05, seed=depth)
        digests.update({f"depth{depth}/{name}": _sha256(value)
                        for name, value in trained.params.items()})
        digests[f"depth{depth}/loss"] = _sha256(history)
    return digests


HERE = Path(__file__).parent
# name: (manifest, run, the builds() keys its bits depend on)
RUNS = {
    "threshold": (HERE / "pinned_outputs.json", pinned_run, ("numpy",)),
    "unet": (HERE / "pinned_outputs_unet.json", pinned_unet_run, ("numpy", "blas")),
    "phantom": (HERE / "pinned_phantom.json", pinned_phantom, ("numpy",)),
    "train": (HERE / "pinned_train.json", pinned_train, ("numpy", "blas")),
}


def check_manifest(kind: str, tmp_path: Path) -> None:
    manifest, run, keys = RUNS[kind]
    pinned = json.loads(manifest.read_text())
    here = builds()
    if any(pinned[k] != here[k] for k in keys):
        pytest.skip(f"{manifest.name} pinned under numpy {pinned['numpy']} / BLAS {pinned['blas']}; "
                    f"this is numpy {here['numpy']} / BLAS {here['blas']}")
    got = run(tmp_path)
    changed = sorted(name for name in pinned["files"].keys() | got.keys()
                     if pinned["files"].get(name) != got.get(name))
    assert not changed, f"files differ from {manifest.name}: {changed}"


def test_run_dir_matches_pinned_manifest(tmp_path):
    check_manifest("threshold", tmp_path)


def test_unet_run_dir_matches_pinned_manifest(tmp_path):
    check_manifest("unet", tmp_path)


def test_phantom_matches_pinned_manifest(tmp_path):
    check_manifest("phantom", tmp_path)


def test_training_matches_pinned_manifest(tmp_path):
    check_manifest("train", tmp_path)


if __name__ == "__main__":
    for name in sys.argv[1:]:
        manifest, run, _ = RUNS[name]
        with tempfile.TemporaryDirectory() as tmp:
            written = dict(builds(), files=run(Path(tmp)))
        manifest.write_text(json.dumps(written, indent=1, sort_keys=True) + "\n")
        print(f"wrote {manifest} ({len(written['files'])} files)", file=sys.stderr)

"""Run-dir bytes pinned across commits.

``pinned_outputs.json`` holds the sha256 of every file ``run_pipeline`` writes for
``test_cli.small_spec()`` with the threshold backends and ``flatfield=estimate``.
Left out are ``report.txt`` (seconds) and ``stages.json``, whose keys hash the run's
own paths and the tiles' mtimes.  A change that alters output bytes on purpose
regenerates the manifest and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_pinned_outputs.py

Kernels backed by BLAS (the ``tensordot`` in ``gaussian_blur``) may round differently
under another numpy or BLAS build, so the manifest records both and the test skips,
naming both builds, where they differ.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from marmopipe.cli import run_pipeline
from rundigest import TIMINGS, file_digests
from test_cli import pipeline_config, small_spec, write_phantom

MANIFEST = Path(__file__).with_name("pinned_outputs.json")
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


def test_run_dir_matches_pinned_manifest(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    here = builds()
    if {k: pinned[k] for k in here} != here:
        pytest.skip(f"manifest pinned under numpy {pinned['numpy']} / BLAS {pinned['blas']}; "
                    f"this is numpy {here['numpy']} / BLAS {here['blas']}")
    got = pinned_run(tmp_path)
    changed = sorted(name for name in pinned["files"].keys() | got.keys()
                     if pinned["files"].get(name) != got.get(name))
    assert not changed, f"run-dir files differ from the pinned manifest: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = dict(builds(), files=pinned_run(Path(tmp)))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(manifest['files'])} files)", file=sys.stderr)

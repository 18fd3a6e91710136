"""Digests of a run directory, shared by the determinism and pinned-output tests."""

from __future__ import annotations

import hashlib
from pathlib import Path

TIMINGS = ("report.txt",)  # its seconds differ between runs


def file_digests(run_dir, skip=TIMINGS) -> dict[str, str]:
    """sha256 of each file in ``run_dir`` by name, leaving out the names in ``skip``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(run_dir).iterdir()) if p.name not in skip}


def run_dir_digest(run_dir, skip=TIMINGS) -> str:
    """One sha256 over the names and bytes of the files in ``run_dir``."""
    digest = hashlib.sha256()
    for p in sorted(Path(run_dir).iterdir()):
        if p.name in skip:
            continue
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()

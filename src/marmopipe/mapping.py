"""Reference-space mapping and region-wise connectivity.

Displacement fields follow the pull-back convention: the field lives on the
reference grid and stores, per voxel, the offset (µm) from that voxel's
centre to the position in the source volume to sample.  This is what
resampling needs and what deformable-registration toolkits emit; computing
the registration itself is out of scope here.

When reference and source share the same grid geometry, sampling positions
are formed as ``index + displacement/voxel`` so a zero field is exactly the
identity (no µm round trip that could perturb the last bit).

``apply_field`` pulls back one reference z-slice at a time: it allocates the
result once and builds indices, weights and gathers for a single (ny, nx)
slice, so its working memory beyond input and output is a few slices.  When
an axis's fractional index is 0 across a whole slice, its upper corner has
weight 0 everywhere and would add only 0.0, so trilinear sampling visits the
floor corner of that axis alone; the result is bit-identical to visiting all
eight corners.  A y-only field needs two gathers per slice and a zero field
on the source grid one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .imgcore import Stack3D, read_stack, write_stack
from .injsite import CellPointCloud

log = logging.getLogger(__name__)


@dataclass
class DisplacementField:
    """(3, nz, ny, nx) µm offsets (dx, dy, dz) on the reference grid."""

    disp: np.ndarray
    voxel_size: tuple[float, float, float]

    def __post_init__(self):
        self.disp = np.asarray(self.disp, dtype=np.float64)
        if self.disp.ndim != 4 or self.disp.shape[0] != 3:
            raise ValueError("displacement field must be shaped (3, nz, ny, nx)")
        if not np.isfinite(self.disp).all():
            raise ValueError("displacement vectors must be finite")
        self.voxel_size = tuple(float(v) for v in self.voxel_size)

    @property
    def shape(self):
        return self.disp.shape[1:]


def identity_field(dims_zyx, voxel_size) -> DisplacementField:
    return DisplacementField(
        disp=np.zeros((3,) + tuple(dims_zyx), dtype=np.float64),
        voxel_size=tuple(voxel_size),
    )


def save_field(field: DisplacementField, prefix) -> None:
    """Store as three f32 stacks ``<prefix>_dx/_dy/_dz``."""
    for i, tag in enumerate(("dx", "dy", "dz")):
        write_stack(
            Stack3D(data=field.disp[i], voxel_size=field.voxel_size, dtype="f32"),
            f"{prefix}_{tag}",
        )


def load_field(prefix) -> DisplacementField:
    """Read ``<prefix>_dx/_dy/_dz`` into one (3, nz, ny, nx) array.

    The parts are read one at a time and copied into place, so at most one
    part is held beside the field."""
    disp = None
    for i, tag in enumerate(("dx", "dy", "dz")):
        part = read_stack(f"{prefix}_{tag}")
        if disp is None:
            disp = np.empty((3,) + part.data.shape, dtype=np.float64)
            voxel_size = part.voxel_size
        elif part.data.shape != disp.shape[1:]:
            raise ValueError(f"{prefix}_{tag} does not match the shape of {prefix}_dx")
        disp[i] = part.data
        del part
    return DisplacementField(disp=disp, voxel_size=voxel_size)


def _source_indices(field: DisplacementField, source: Stack3D):
    """Yield ``(z, ci_z, ci_y, ci_x)``: continuous sampling indices into the
    source grid for each reference z-slice, each (ny, nx)."""
    nz, ny, nx = field.shape
    vx, vy, vz = field.voxel_size
    sx, sy, sz = source.voxel_size
    yy = np.arange(ny, dtype=np.float64)[:, None]
    xx = np.arange(nx, dtype=np.float64)[None, :]
    congruent = field.shape == source.data.shape and np.allclose(
        field.voxel_size, source.voxel_size, rtol=0, atol=1e-12
    )
    for z in range(nz):
        dx, dy, dz = field.disp[:, z]
        if congruent:
            yield z, z + dz / sz, yy + dy / sy, xx + dx / sx
        else:
            yield (
                z,
                ((z + 0.5) * vz + dz) / sz - 0.5,
                ((yy + 0.5) * vy + dy) / sy - 0.5,
                ((xx + 0.5) * vx + dx) / sx - 0.5,
            )


def _gather(data: np.ndarray, zi, yi, xi, valid) -> np.ndarray:
    out = np.zeros(zi.shape, dtype=np.float64)
    if valid.any():
        out[valid] = data[zi[valid], yi[valid], xi[valid]]
    return out


def apply_field(stack: Stack3D, field: DisplacementField, interpolation: str = "linear") -> Stack3D:
    """Resample a source stack onto the reference grid through the field.

    ``nearest`` is for label/mask volumes, ``linear`` for intensities;
    samples falling outside the source domain become 0.
    """
    if interpolation not in ("linear", "nearest"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    data = stack.data
    if interpolation == "linear" and stack.dtype == "u16" \
            and float(np.abs(data - np.rint(data)).max(initial=0.0)) == 0.0 \
            and len(np.unique(data)) < 64:
        log.warning("linear interpolation of an integer-labeled volume; did you mean nearest?")
    nz, ny, nx = data.shape
    out = np.zeros(field.shape, dtype=np.float64)
    for z, ci_z, ci_y, ci_x in _source_indices(field, stack):
        if interpolation == "nearest":
            zi = np.rint(ci_z).astype(np.int64)
            yi = np.rint(ci_y).astype(np.int64)
            xi = np.rint(ci_x).astype(np.int64)
            valid = (zi >= 0) & (zi < nz) & (yi >= 0) & (yi < ny) & (xi >= 0) & (xi < nx)
            out[z] = _gather(data, zi, yi, xi, valid)
            continue
        z0 = np.floor(ci_z).astype(np.int64)
        y0 = np.floor(ci_y).astype(np.int64)
        x0 = np.floor(ci_x).astype(np.int64)
        fz, fy, fx = ci_z - z0, ci_y - y0, ci_x - x0
        # an axis whose fraction is 0 on the whole slice puts weight 0 on its
        # upper corner, which would only add 0.0: visit its floor corner alone
        corners_z, corners_y, corners_x = (
            ((0, 1.0 - f), (1, f)) if f.any() else ((0, 1.0 - f),) for f in (fz, fy, fx)
        )
        for dz, wz in corners_z:
            for dy, wy in corners_y:
                for dx, wx in corners_x:
                    zi, yi, xi = z0 + dz, y0 + dy, x0 + dx
                    weight = wz * wy * wx
                    valid = (
                        (zi >= 0) & (zi < nz) & (yi >= 0) & (yi < ny)
                        & (xi >= 0) & (xi < nx) & (weight != 0)
                    )
                    out[z] += weight * _gather(data, zi, yi, xi, valid)
    return Stack3D(data=out, voxel_size=field.voxel_size, channel=stack.channel, dtype=stack.dtype)


# ---------------------------------------------------------------------------
# atlas + connectivity
# ---------------------------------------------------------------------------


@dataclass
class RegionAtlas:
    """Integer region labels (0 = outside) plus a region-name table."""

    labels: np.ndarray
    voxel_size: tuple[float, float, float]
    names: dict[int, str] = dc_field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            rounded = np.rint(np.asarray(self.labels, dtype=np.float64))
            self.labels = rounded.astype(np.int64)
        ids = np.unique(self.labels)
        for rid in ids[ids > 0]:
            self.names.setdefault(int(rid), f"region_{int(rid)}")

    @classmethod
    def load(cls, prefix) -> "RegionAtlas":
        stack = read_stack(prefix)
        names = {}
        names_path = Path(str(prefix)).with_suffix(".names")
        if names_path.exists():
            for line in names_path.read_text().splitlines():
                if line.strip():
                    rid, name = line.split(None, 1)
                    names[int(rid)] = name.strip()
        return cls(labels=stack.data, voxel_size=stack.voxel_size, names=names)

    def save(self, prefix) -> None:
        write_stack(
            Stack3D(data=self.labels.astype(np.float64), voxel_size=self.voxel_size, dtype="u16"),
            prefix,
        )
        lines = [f"{rid} {name}" for rid, name in sorted(self.names.items())]
        Path(str(prefix)).with_suffix(".names").write_text("\n".join(lines) + "\n")


def injection_regions(source, atlas: RegionAtlas):
    """Count injection evidence per atlas region.

    ``source`` is a binary mask stack congruent with the atlas or a
    CellPointCloud in atlas voxel coordinates.  Returns ``(counts, outside)``
    where counts maps region id -> voxel/point count and outside tallies
    hits on id 0 or out-of-bounds coordinates.
    """
    counts = {rid: 0 for rid in sorted(atlas.names)}
    outside = 0
    if isinstance(source, CellPointCloud):
        nz, ny, nx = atlas.labels.shape
        for x, y, z in source.points:
            if 0 <= x < nx and 0 <= y < ny and 0 <= z < nz:
                rid = int(atlas.labels[z, y, x])
                if rid > 0:
                    counts[rid] = counts.get(rid, 0) + 1
                else:
                    outside += 1
            else:
                outside += 1
        return counts, outside

    mask = source.data if isinstance(source, Stack3D) else np.asarray(source)
    if mask.shape != atlas.labels.shape:
        raise ValueError(f"mask {mask.shape} incongruent with atlas {atlas.labels.shape}")
    hits = atlas.labels[mask > 0]
    binned = np.bincount(hits)
    outside = int(binned[0]) if len(binned) else 0
    for rid in np.nonzero(binned)[0]:
        if rid > 0:
            counts[int(rid)] = int(binned[rid])
    return counts, outside


def projection_strengths(signal: Stack3D, atlas: RegionAtlas, normalize: bool = False):
    """Sum the tracer signal per atlas region.

    Returns ``(sums, outside)``; with ``normalize`` the per-region sum is
    divided by the region's voxel count.  The sums plus the outside share
    conserve the total signal.
    """
    data = signal.data if isinstance(signal, Stack3D) else np.asarray(signal, dtype=np.float64)
    if data.shape != atlas.labels.shape:
        raise ValueError(f"signal {data.shape} incongruent with atlas {atlas.labels.shape}")
    if (data < 0).any():
        raise ValueError("signal must be nonnegative")
    flat = atlas.labels.ravel()
    sums = np.bincount(flat, weights=data.ravel())
    voxels = np.bincount(flat)
    outside = float(sums[0]) if len(sums) else 0.0
    result: dict[int, float] = {}
    for rid in sorted(atlas.names):
        value = float(sums[rid]) if rid < len(sums) else 0.0
        if normalize:
            value = value / float(voxels[rid]) if rid < len(voxels) and voxels[rid] else 0.0
        result[rid] = value
    return result, outside


@dataclass
class ConnectivityTable:
    """Per-region source counts and target signal sums for one injection."""

    brain_id: str
    injection_id: str
    sources: dict[int, float]
    targets: dict[int, float]
    outside_source: float = 0.0
    outside_target: float = 0.0
    meta: dict[str, str] = dc_field(default_factory=dict)

    def save(self, path) -> None:
        lines = [f"# brain={self.brain_id} injection={self.injection_id}"]
        for key in sorted(self.meta):
            lines.append(f"# {key}={self.meta[key]}")
        lines.append(
            f"# outside_src={float(self.outside_source)!r} outside_tgt={float(self.outside_target)!r}"
        )
        for rid in sorted(self.sources):
            lines.append(f"src {rid} {float(self.sources[rid])!r}")
        for rid in sorted(self.targets):
            lines.append(f"tgt {rid} {float(self.targets[rid])!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "ConnectivityTable":
        brain = injection = ""
        meta = {}
        sources: dict[int, float] = {}
        targets: dict[int, float] = {}
        out_src = out_tgt = 0.0
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, value = token.split("=", 1)
                        if key == "brain":
                            brain = value
                        elif key == "injection":
                            injection = value
                        elif key == "outside_src":
                            out_src = float(value)
                        elif key == "outside_tgt":
                            out_tgt = float(value)
                        else:
                            meta[key] = value
                continue
            kind, rid, value = line.split()
            if kind == "src":
                sources[int(rid)] = float(value)
            elif kind == "tgt":
                targets[int(rid)] = float(value)
            else:
                raise ValueError(f"unrecognized table line: {line!r}")
        return cls(
            brain_id=brain,
            injection_id=injection,
            sources=sources,
            targets=targets,
            outside_source=out_src,
            outside_target=out_tgt,
            meta=meta,
        )

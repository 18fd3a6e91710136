"""Reference-space mapping and region-wise connectivity.

Displacement fields follow the pull-back convention: the field lives on the
reference grid and stores, per voxel, the offset (µm) from that voxel's
centre to the position in the source volume to sample.  This is what
resampling needs and what deformable-registration toolkits emit; computing
the registration itself is out of scope here.

When reference and source share the same grid geometry, sampling positions
are formed as ``index + displacement/voxel`` so a zero field is exactly the
identity (no µm round trip that could perturb the last bit).

All five pipeline stages stream; the map and connectivity stages built from
this module work one z-slice at a time, never on a whole volume.
``_PullBack`` resamples one reference slice from the source slab its sample
positions touch; ``map_stack`` runs it over a saved field and a source stack
on disk, reading each field slice and each source slab as it needs them, and
``apply_field`` runs it over arrays in memory.  When an axis's fractional
index is 0 across a whole slice, its upper corner has weight 0 everywhere and
would add only 0.0, so trilinear sampling visits the floor corner of that axis
alone; the result is bit-identical to visiting all eight corners.  A y-only
field needs two gathers per slice and a zero field on the source grid one.
``RegionTally`` adds up an atlas's regions one slice at a time;
``tally_regions`` drives it over stacks on disk or arrays in memory.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .imgcore import (FormatError, Stack3D, StackReader, StackWriter, prefix_paths, read_stack,
                      write_stack)
from .injsite import CellPointCloud

log = logging.getLogger(__name__)

_FIELD_PARTS = ("dx", "dy", "dz")


def _check_finite(disp: np.ndarray) -> None:
    if not np.isfinite(disp).all():
        raise ValueError("displacement vectors must be finite")


@dataclass
class DisplacementField:
    """(3, nz, ny, nx) µm offsets (dx, dy, dz) on the reference grid."""

    disp: np.ndarray
    voxel_size: tuple[float, float, float]

    def __post_init__(self):
        self.disp = np.asarray(self.disp, dtype=np.float64)
        if self.disp.ndim != 4 or self.disp.shape[0] != 3:
            raise ValueError("displacement field must be shaped (3, nz, ny, nx)")
        _check_finite(self.disp)
        self.voxel_size = tuple(float(v) for v in self.voxel_size)

    @property
    def shape(self):
        return self.disp.shape[1:]


def save_field(field: DisplacementField, prefix) -> None:
    """Store as three f32 stacks ``<prefix>_dx/_dy/_dz``."""
    for i, tag in enumerate(_FIELD_PARTS):
        write_stack(
            Stack3D(data=field.disp[i], voxel_size=field.voxel_size, dtype="f32"),
            f"{prefix}_{tag}",
        )


class FieldReader:
    """A saved field ``<prefix>_dx/_dy/_dz``, read one reference z-slice at a time.

    The parts' shapes are checked from their headers on opening.  Iterating yields
    each slice's ``(dx, dy, dz)``, three (ny, nx) float64 planes, checked to be finite
    as they are read.
    """

    def __init__(self, prefix):
        parts = [StackReader(f"{prefix}_{tag}") for tag in _FIELD_PARTS]
        for tag, part in zip(_FIELD_PARTS[1:], parts[1:]):
            if part.shape != parts[0].shape:
                raise ValueError(f"{prefix}_{tag} does not match the shape of {prefix}_dx")
        self._parts = parts
        self.shape = parts[0].shape
        self.voxel_size = parts[0].voxel_size

    def __iter__(self):
        for disp in zip(*self._parts):
            for plane in disp:
                _check_finite(plane)
            yield disp


def load_field(prefix) -> DisplacementField:
    """Read ``<prefix>_dx/_dy/_dz`` into one (3, nz, ny, nx) array, slice by slice."""
    reader = FieldReader(prefix)
    disp = np.empty((3,) + reader.shape, dtype=np.float64)
    for z, plane in enumerate(reader):
        disp[:, z] = plane
    return DisplacementField(disp=disp, voxel_size=reader.voxel_size)


def _gather(data: np.ndarray, zi, yi, xi, valid) -> np.ndarray:
    out = np.zeros(zi.shape, dtype=np.float64)
    if valid.any():
        out[valid] = data[zi[valid], yi[valid], xi[valid]]
    return out


class _PullBack:
    """Resample one reference z-slice at a time from a source of shape ``source_shape``.

    ``slab(z0, z1)`` returns the source slices ``z0:z1``; each reference slice asks
    for the range of slices its sample positions touch, clipped to the source.
    ``nearest`` is for label/mask volumes, ``linear`` for intensities; samples
    falling outside the source domain become 0.
    """

    def __init__(self, shape, voxel_size, source_shape, source_voxel, slab, interpolation):
        if interpolation not in ("linear", "nearest"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        self.interpolation = interpolation
        self.voxel_size, self.source_voxel = voxel_size, source_voxel
        self.source_shape = tuple(source_shape)
        self.slab = slab
        _, ny, nx = shape
        self.yy = np.arange(ny, dtype=np.float64)[:, None]
        self.xx = np.arange(nx, dtype=np.float64)[None, :]
        self.congruent = tuple(shape) == self.source_shape and np.allclose(
            voxel_size, source_voxel, rtol=0, atol=1e-12
        )

    def positions(self, z: int, disp):
        """Continuous sampling indices ``(ci_z, ci_y, ci_x)`` into the source grid,
        each (ny, nx), for reference slice ``z`` with offsets ``disp``."""
        dx, dy, dz = disp
        sx, sy, sz = self.source_voxel
        if self.congruent:
            return z + dz / sz, self.yy + dy / sy, self.xx + dx / sx
        vx, vy, vz = self.voxel_size
        return (
            ((z + 0.5) * vz + dz) / sz - 0.5,
            ((self.yy + 0.5) * vy + dy) / sy - 0.5,
            ((self.xx + 0.5) * vx + dx) / sx - 0.5,
        )

    def _slab(self, lo: int, hi: int):
        """Source slices ``lo:hi`` clipped to the source, and the first one's index."""
        nz = self.source_shape[0]
        lo = min(max(int(lo), 0), nz)
        hi = min(max(int(hi), lo), nz)
        return self.slab(lo, hi), lo

    def __call__(self, z: int, disp) -> np.ndarray:
        """The (ny, nx) float64 resampled reference slice ``z``."""
        nz, ny, nx = self.source_shape
        ci_z, ci_y, ci_x = self.positions(z, disp)
        if self.interpolation == "nearest":
            zi = np.rint(ci_z).astype(np.int64)
            yi = np.rint(ci_y).astype(np.int64)
            xi = np.rint(ci_x).astype(np.int64)
            valid = (zi >= 0) & (zi < nz) & (yi >= 0) & (yi < ny) & (xi >= 0) & (xi < nx)
            data, lo = self._slab(zi.min(), zi.max() + 1)
            return _gather(data, zi - lo, yi, xi, valid)
        z0 = np.floor(ci_z).astype(np.int64)
        y0 = np.floor(ci_y).astype(np.int64)
        x0 = np.floor(ci_x).astype(np.int64)
        fz, fy, fx = ci_z - z0, ci_y - y0, ci_x - x0
        # an axis whose fraction is 0 on the whole slice puts weight 0 on its
        # upper corner, which would only add 0.0: visit its floor corner alone
        corners_z, corners_y, corners_x = (
            ((0, 1.0 - f), (1, f)) if f.any() else ((0, 1.0 - f),) for f in (fz, fy, fx)
        )
        data, lo = self._slab(z0.min(), z0.max() + len(corners_z))
        out = np.zeros(ci_z.shape, dtype=np.float64)
        for dz, wz in corners_z:
            for dy, wy in corners_y:
                for dx, wx in corners_x:
                    zi, yi, xi = z0 + dz, y0 + dy, x0 + dx
                    weight = wz * wy * wx
                    valid = (
                        (zi >= 0) & (zi < nz) & (yi >= 0) & (yi < ny)
                        & (xi >= 0) & (xi < nx) & (weight != 0)
                    )
                    out += weight * _gather(data, zi - lo, yi, xi, valid)
        return out


def _warn_if_labels(planes, dtype: str, interpolation: str) -> None:
    """Warn when a u16 stack of fewer than 64 integer values is resampled linearly."""
    if interpolation != "linear" or dtype != "u16":
        return
    values = np.zeros(0)
    for plane in planes:
        if float(np.abs(plane - np.rint(plane)).max(initial=0.0)) != 0.0:
            return
        values = np.union1d(values, plane)
        if len(values) >= 64:
            return
    log.warning("linear interpolation of an integer-labeled volume; did you mean nearest?")


def apply_field(stack: Stack3D, field: DisplacementField, interpolation: str = "linear") -> Stack3D:
    """Resample a source stack onto the reference grid through the field.

    ``nearest`` is for label/mask volumes, ``linear`` for intensities;
    samples falling outside the source domain become 0.
    """
    data = stack.data
    pull = _PullBack(field.shape, field.voxel_size, data.shape, stack.voxel_size,
                     lambda z0, z1: data[z0:z1], interpolation)
    _warn_if_labels(data, stack.dtype, interpolation)
    out = np.empty(field.shape, dtype=np.float64)
    for z in range(field.shape[0]):
        out[z] = pull(z, field.disp[:, z])
    return Stack3D(data=out, voxel_size=field.voxel_size, channel=stack.channel, dtype=stack.dtype)


def map_stack(source, field, interpolation: str, dest) -> None:
    """Write the stack ``source`` resampled through the saved field ``field`` to ``dest``.

    ``field`` is a field prefix, or None for the identity, which copies ``source``.
    One slice at a time is written: a reference slice takes its field slice and the
    source slices its sample positions touch, so neither the field nor the source is
    read whole.  ``dest`` gets its header only once every slice is in.
    """
    if prefix_paths(source, "stack")[1].resolve() == prefix_paths(dest, "stack")[1].resolve():
        raise ValueError(f"{dest} is the stack it would be mapped from")
    src = StackReader(source)
    if field is None:
        with StackWriter(dest, src.dims, src.voxel_size, src.channel, src.dtype) as out:
            for plane in src:
                out.write(plane)
        return
    offsets = FieldReader(field)
    pull = _PullBack(offsets.shape, offsets.voxel_size, src.shape, src.voxel_size, src.slab,
                     interpolation)
    _warn_if_labels(src, src.dtype, interpolation)
    nz, ny, nx = offsets.shape
    with StackWriter(dest, (nx, ny, nz), offsets.voxel_size, src.channel, src.dtype) as out:
        for z, disp in enumerate(offsets):
            out.write(pull(z, disp))


# ---------------------------------------------------------------------------
# atlas + connectivity
# ---------------------------------------------------------------------------


def _labels(a) -> np.ndarray:
    """Integer region labels; other values are rounded to the nearest integer."""
    a = np.asarray(a)
    if np.issubdtype(a.dtype, np.integer):
        return a
    return np.rint(np.asarray(a, dtype=np.float64)).astype(np.int64)


def atlas_names(prefix) -> dict[int, str]:
    """The region names of ``<prefix>.names`` (``<id> <name>`` lines), or none; a line of
    another form is a FormatError that names the file and the line."""
    names = {}
    names_path = prefix_paths(prefix, "atlas")[2]
    if names_path.exists():
        for lineno, line in enumerate(names_path.read_text().splitlines(), 1):
            if line.strip():
                try:
                    rid, name = line.split(None, 1)
                    names[int(rid)] = name.strip()
                except ValueError as exc:
                    raise FormatError(f"{names_path} line {lineno}: expected '<id> <name>', "
                                      f"got {line!r}") from exc
    return names


@dataclass
class RegionAtlas:
    """Integer region labels (0 = outside) plus a region-name table."""

    labels: np.ndarray
    voxel_size: tuple[float, float, float]
    names: dict[int, str] = dc_field(default_factory=dict)

    def __post_init__(self):
        self.labels = _labels(self.labels)
        ids = np.unique(self.labels)
        for rid in ids[ids > 0]:
            self.names.setdefault(int(rid), f"region_{int(rid)}")

    @classmethod
    def load(cls, prefix) -> "RegionAtlas":
        stack = read_stack(prefix)
        return cls(labels=stack.data, voxel_size=stack.voxel_size, names=atlas_names(prefix))

    def save(self, prefix) -> None:
        write_stack(
            Stack3D(data=self.labels.astype(np.float64), voxel_size=self.voxel_size, dtype="u16"),
            prefix,
        )
        lines = [f"{rid} {name}" for rid, name in sorted(self.names.items())]
        prefix_paths(prefix, "atlas")[2].write_text("\n".join(lines) + "\n")


def check_congruent(what: str, shape, atlas_shape) -> None:
    """Raise unless a (nz, ny, nx) ``shape`` is the atlas's."""
    if tuple(shape) != tuple(atlas_shape):
        raise ValueError(f"{what} {tuple(shape)} incongruent with atlas {tuple(atlas_shape)}")


def _plus(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Add two per-id count arrays of any lengths."""
    if len(counts) > len(total):
        total, counts = counts, total
    total[: len(counts)] += counts
    return total


class RegionTally:
    """Per-region tallies of one atlas, added one z-slice at a time.

    Per label id, ``voxels`` counts the atlas voxels, ``sums`` adds the signal and
    ``hits`` counts the source mask voxels or cells; ``outside_points`` counts cells
    outside the atlas.  The running ``sums`` enter each slice's ``bincount`` as the
    weights of ids ``0..n-1`` ahead of the slice's voxels, so each id's signal is
    added in z, y, x order, as one whole-volume ``bincount`` adds it: same bits.
    """

    def __init__(self, names=()):
        self.names = dict(names)
        self.voxels = np.zeros(0, dtype=np.int64)
        self.sums = np.zeros(0, dtype=np.float64)
        self.hits = np.zeros(0, dtype=np.int64)
        self.outside_points = 0

    def add(self, labels, signal=None, mask=None, points=None) -> None:
        """Add one (ny, nx) atlas slice, with the signal or the source mask of that
        slice, or the (x, y) of the cells on it."""
        labels = _labels(labels)
        flat = labels.ravel()
        self.voxels = _plus(self.voxels, np.bincount(flat))
        if signal is not None:
            if (signal < 0).any():
                raise ValueError("signal must be nonnegative")
            carried = np.arange(len(self.sums))
            self.sums = np.bincount(np.concatenate([carried, flat]),
                                    weights=np.concatenate([self.sums, np.ravel(signal)]))
        if mask is not None:
            self.hits = _plus(self.hits, np.bincount(labels[np.asarray(mask) > 0]))
        if points is not None:
            self.hits = _plus(self.hits, np.bincount(labels[points[:, 1], points[:, 0]]))

    def regions(self) -> list[int]:
        """The named ids and every id > 0 the atlas holds, ascending."""
        for rid in np.nonzero(self.voxels)[0]:
            if rid > 0:
                self.names.setdefault(int(rid), f"region_{int(rid)}")
        return sorted(self.names)

    def sources(self):
        """``(counts, outside)``: mask voxels or cells per region, and those on id 0
        or outside the atlas."""
        counts = {rid: 0 for rid in self.regions()}
        for rid in np.nonzero(self.hits)[0]:
            if rid > 0:
                counts[int(rid)] = int(self.hits[rid])
        outside = (int(self.hits[0]) if len(self.hits) else 0) + self.outside_points
        return counts, outside

    def targets(self, normalize: bool = False):
        """``(sums, outside)``: the signal per region (per voxel with ``normalize``),
        and the signal on id 0."""
        sums, voxels = self.sums, self.voxels
        outside = float(sums[0]) if len(sums) else 0.0
        result: dict[int, float] = {}
        for rid in self.regions():
            value = float(sums[rid]) if rid < len(sums) else 0.0
            if normalize:
                value = value / float(voxels[rid]) if rid < len(voxels) and voxels[rid] else 0.0
            result[rid] = value
        return result, outside


def tally_regions(atlas, names=(), signal=None, mask=None, cells=None) -> RegionTally:
    """One pass over the z-slices of ``atlas`` and of ``signal`` or ``mask``.

    ``atlas``, ``signal`` and ``mask`` are (nz, ny, nx) arrays or ``StackReader``s,
    the latter two congruent with the atlas (the caller checks).  ``cells`` is a
    CellPointCloud in atlas voxel coordinates.
    """
    tally = RegionTally(names)
    nz, ny, nx = atlas.shape
    if cells is not None:
        inside = ((cells.points >= 0) & (cells.points < (nx, ny, nz))).all(axis=1)
        tally.outside_points = int(np.count_nonzero(~inside))
        points = cells.points[inside]
    none = itertools.repeat(None)
    planes = zip(atlas, none if signal is None else signal, none if mask is None else mask)
    for z, (labels, signal_z, mask_z) in enumerate(planes):
        tally.add(labels, signal_z, mask_z, None if cells is None else points[points[:, 2] == z])
    return tally


def injection_regions(source, atlas: RegionAtlas):
    """Count injection evidence per atlas region.

    ``source`` is a binary mask stack congruent with the atlas or a
    CellPointCloud in atlas voxel coordinates.  Returns ``(counts, outside)``
    where counts maps region id -> voxel/point count and outside tallies
    hits on id 0 or out-of-bounds coordinates.
    """
    if isinstance(source, CellPointCloud):
        return tally_regions(atlas.labels, atlas.names, cells=source).sources()
    mask = source.data if isinstance(source, Stack3D) else np.asarray(source)
    check_congruent("mask", mask.shape, atlas.labels.shape)
    return tally_regions(atlas.labels, atlas.names, mask=mask).sources()


def projection_strengths(signal: Stack3D, atlas: RegionAtlas, normalize: bool = False):
    """Sum the tracer signal per atlas region.

    Returns ``(sums, outside)``; with ``normalize`` the per-region sum is
    divided by the region's voxel count.  The sums plus the outside share
    conserve the total signal.
    """
    data = signal.data if isinstance(signal, Stack3D) else np.asarray(signal, dtype=np.float64)
    check_congruent("signal", data.shape, atlas.labels.shape)
    return tally_regions(atlas.labels, atlas.names, signal=data).targets(normalize)


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
        """Read a saved table; a row other than ``src|tgt <region> <value>`` is a
        FormatError that names the file and the line."""
        brain = injection = ""
        meta = {}
        sources: dict[int, float] = {}
        targets: dict[int, float] = {}
        out_src = out_tgt = 0.0
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
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
            try:
                kind, rid, value = line.split()
                {"src": sources, "tgt": targets}[kind][int(rid)] = float(value)
            except (KeyError, ValueError) as exc:
                raise FormatError(f"{path} line {lineno}: expected 'src|tgt <region> <value>', "
                                  f"got {line!r}") from exc
        return cls(
            brain_id=brain,
            injection_id=injection,
            sources=sources,
            targets=targets,
            outside_source=out_src,
            outside_target=out_tgt,
            meta=meta,
        )

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
``_PullBack`` resamples one reference slice, in blocks of whole rows, from the
one source slab that slice's sample positions touch; ``map_stack`` runs it over
a saved field and a source stack on disk, reading each field slice and each
source slab as it needs them, and ``apply_field`` runs it over arrays in
memory.  Each output pixel depends on its own offsets alone, so the blocks
change no bit, and every per-position array but the output is a temporary of
one block.  Two rules keep a block cheap without changing a
bit of it.  An axis whose offsets are all zero in the block is sampled along
one grid line: its position is a scalar (z), a column (y) or a row (x), since
adding a zero offset changes nothing, and its floor, fraction and range test
stay that small.  An axis whose fraction is all zero in the block visits its
floor corner alone: its upper corner has weight 0 there and would add only
0.0.  Each visited corner is one flat gather from the slab.  A y-only field
needs at most two gathers per block and a zero field on the source grid one.
``RegionTally`` adds up an atlas's regions one slice at a time;
``tally_regions`` drives it over stacks on disk or arrays in memory.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .imgcore import (Stack3D, StackReader, StackWriter, parse_rows, prefix_paths, read_stack,
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
    each slice's ``(dx, dy, dz)``, the parts' three (ny, nx) ``<f4`` planes as stored,
    each checked to be finite as it is read (an f32 value is finite exactly when its
    float64 conversion is).
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
    for z, planes in enumerate(reader):
        for part, plane in zip(disp, planes):
            part[z] = plane
    return DisplacementField(disp=disp, voxel_size=reader.voxel_size)


def _inside(start, offset: int, n: int):
    """Where ``start + offset`` lies in ``0..n-1``, or None if it does everywhere."""
    if np.min(start) >= -offset and np.max(start) < n - offset:
        return None
    return (start >= -offset) & (start < n - offset)


def _both(a, b):
    """The elementwise and of two masks, either of which may be None (true everywhere)."""
    return b if a is None else a if b is None else a & b


def _times(a, b):
    """The product of two weights, either of which may be None (1.0 everywhere, which
    multiplies no bit)."""
    return b if a is None else a if b is None else a * b


# Reference pixels ``_PullBack`` resamples at a time: a block of whole rows (at least
# one).  It bounds the per-position temporaries of a slice to those of one block;
# 2**14 is the only size that has been measured.
_BLOCK_PIXELS = 1 << 14


class _PullBack:
    """Resample one reference z-slice at a time from a source of shape ``source_shape``.

    ``slab(z0, z1)`` returns the source slices ``z0:z1``, in any dtype that float64
    holds exactly; each reference slice reads one slab, the range of slices its sample
    positions touch, clipped to the source.  A position grows with its offset, so the
    slice's least and greatest z offsets give that range without a position per pixel.
    ``nearest`` is for label/mask volumes, ``linear`` for intensities; samples falling
    outside the source domain become 0.

    A slice is computed in blocks of whole rows, about ``_BLOCK_PIXELS`` pixels each.
    Within a block, an axis whose offsets are all zero is sampled along one grid line:
    its position, start index, fraction and range test are a scalar (z), a column (y)
    or a row (x) instead of a block.  An axis whose fraction is all zero in the block
    visits its floor corner alone.  Each corner is one gather: the flat slab index
    ``((z - lo) * ny + y) * nx + x`` is built once per block and shifted by the
    corner's constant offset, indices off the slab are clipped, and the corner adds
    ``weight * value`` only where its voxel lies in the source and its weight is not 0,
    so what a clipped index reads never reaches the output.  Values are gathered in
    the slab's dtype and widened to float64 by the arithmetic that uses them; offsets
    are cast to float64 before any arithmetic.  Only the output is a whole slice, kept
    from slice to slice; every other per-position array is a temporary of one block.
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
        self.rows = min(max(1, _BLOCK_PIXELS // nx), ny)
        self._out = np.empty((ny, nx), dtype=np.float64)

    def _position(self, grid, disp, v: float, s: float) -> np.ndarray:
        """Reference indices ``grid`` of ``v`` µm voxels, moved by ``disp`` µm, as
        float64 indices into ``s`` µm source voxels.  Each step rounds monotonically,
        so the position never falls as the offset grows."""
        ci = np.array(disp, dtype=np.float64)  # float64 first: f32 would compute in f32
        if self.congruent:
            ci /= s
            ci += grid
        else:
            ci += (grid + 0.5) * v
            ci /= s
            ci -= 0.5
        return ci

    def _axis(self, grid, disp, v: float, s: float):
        """One axis of a block's sampling positions: reference indices ``grid`` (a
        scalar, column or row) moved by the block's ``disp``.  Returns the integer start
        index and the ``(offset, weight)`` corners: the nearest index, or the floor and,
        unless every fraction is 0, the index above it.  A weight of 1.0 everywhere is
        None.

        With ``disp`` all zero the axis keeps its grid line: adding 0.0 would change
        no bit.
        """
        nearest = self.interpolation == "nearest"
        if not disp.any():
            ci = grid if self.congruent else (grid + 0.5) * v / s - 0.5
        else:
            ci = self._position(grid, disp, v, s)
        start = np.rint(ci) if nearest else np.floor(ci)
        frac = None if nearest else ci - start
        start = start.astype(np.int64)
        if frac is None or not frac.any():
            return start, ((0, None),)
        return start, ((0, 1.0 - frac), (1, frac))

    def _span(self, z: int, dz, v: float, s: float) -> tuple[int, int]:
        """The source slices ``lo:hi`` that reference slice ``z`` with z offsets ``dz``
        touches, clipped to the source.  With offsets that differ but all land on whole
        source slices, ``hi`` is one slice more than the positions need."""
        first, last = (self._position(float(z), d, v, s) for d in (np.min(dz), np.max(dz)))
        if self.interpolation == "nearest":
            lo, hi = int(np.rint(first)), int(np.rint(last)) + 1
        else:
            lo, hi = int(np.floor(first)), int(np.floor(last)) + 1
            if first != last or last != hi - 1:  # some fraction is not 0
                hi += 1
        nz = self.source_shape[0]
        lo = min(max(lo, 0), nz)
        return lo, min(max(hi, lo), nz)

    def _resample(self, out, flat, lo: int, axes) -> None:
        """Fill the block ``out`` from the flattened slab ``flat`` of source slices from
        ``lo`` on, at each axis's ``(start, corners)``."""
        nz, ny, nx = self.source_shape
        (z0, corners_z), (y0, corners_y), (x0, corners_x) = axes
        index = ((z0 - lo) * ny + y0) * nx + x0
        inside_z, inside_y, inside_x = (
            [_inside(start, offset, n) for offset, _ in corners]
            for start, corners, n in ((z0, corners_z, nz), (y0, corners_y, ny),
                                      (x0, corners_x, nx)))
        if self.interpolation == "nearest":
            out[...] = np.take(flat, index, mode="clip")
            valid = _both(_both(inside_z[0], inside_y[0]), inside_x[0])
            if valid is not None:
                np.copyto(out, 0.0, where=~valid)
            return
        out.fill(0.0)
        shift = 0
        for (dz, wz), in_z in zip(corners_z, inside_z):
            for (dy, wy), in_y in zip(corners_y, inside_y):
                w_zy, in_zy = _times(wz, wy), _both(in_z, in_y)
                for (dx, wx), in_x in zip(corners_x, inside_x):
                    corner = (dz * ny + dy) * nx + dx
                    if corner != shift:
                        index += corner - shift
                        shift = corner
                    value = np.take(flat, index, mode="clip")
                    weight, valid = _times(w_zy, wx), _both(in_zy, in_x)
                    if weight is not None:
                        valid = _both(valid, weight != 0)
                        # where ``valid`` is false the product is left unset: not added
                        value = np.multiply(weight, value, out=None, where=valid)
                    np.add(out, value, out=out, where=True if valid is None else valid)

    def __call__(self, z: int, disp) -> np.ndarray:
        """The (ny, nx) float64 resampled reference slice ``z`` with offsets ``disp``
        (``dx``, ``dy``, ``dz`` planes, f32 or float64); the next call overwrites it."""
        (vx, vy, vz), (sx, sy, sz) = self.voxel_size, self.source_voxel
        out = self._out
        lo, hi = self._span(z, disp[2], vz, sz)
        flat = self.slab(lo, hi).reshape(-1)
        if flat.size == 0:
            out.fill(0.0)
            return out
        for r0 in range(0, len(out), self.rows):
            rows = slice(r0, r0 + self.rows)
            self._resample(out[rows], flat, lo, (
                self._axis(float(z), disp[2][rows], vz, sz),
                self._axis(self.yy[rows], disp[1][rows], vy, sy),
                self._axis(self.xx, disp[0][rows], vx, sx)))
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
    def row(line):
        rid, name = line.split(None, 1)
        return int(rid), name
    names_path = prefix_paths(prefix, "atlas")[2]
    return dict(parse_rows(names_path, "'<id> <name>'", row)) if names_path.exists() else {}


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
    outside the atlas.  A slice is added in blocks of ``BLOCK`` voxels in x-fastest
    order.  The running ``sums`` enter each block's ``bincount`` as the weights of ids
    ``0..n-1`` ahead of the block's voxels, so each id's signal is added in z, y, x
    order, as one whole-volume ``bincount`` adds it: same bits.
    """

    BLOCK = 1 << 16

    def __init__(self, names=()):
        self.names = dict(names)
        self.voxels = np.zeros(0, dtype=np.int64)
        self.sums = np.zeros(0, dtype=np.float64)
        self.hits = np.zeros(0, dtype=np.int64)
        self.outside_points = 0

    def add(self, labels, signal=None, mask=None, points=None) -> None:
        """Add one (ny, nx) atlas slice, with the signal or the source mask of that
        slice, or the (x, y) of the cells on it.  Integer labels (u16 as read) and the
        signal (f32 as read) are used as they are, a block at a time: no slice-sized
        float64 or int64 copy is made."""
        labels = _labels(labels)
        flat = labels.ravel()
        values = None if signal is None else np.ravel(signal)
        if values is not None and (values < 0).any():
            raise ValueError("signal must be nonnegative")
        for start in range(0, flat.size, self.BLOCK):
            ids = flat[start:start + self.BLOCK]
            self.voxels = _plus(self.voxels, np.bincount(ids))
            if values is not None:
                carried = np.arange(len(self.sums))
                self.sums = np.bincount(np.concatenate([carried, ids]), weights=np.concatenate(
                    [self.sums, values[start:start + self.BLOCK]]))
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
        """Read a saved table; a line other than ``# key=value ...`` or ``src|tgt <region>
        <value>`` is a FormatError that names the file and the line."""
        kwargs = {"brain_id": "", "injection_id": "", "sources": {}, "targets": {}, "meta": {}}
        header = {"brain": ("brain_id", str), "injection": ("injection_id", str),
                  "outside_src": ("outside_source", float), "outside_tgt": ("outside_target", float)}

        def row(line):
            if line.startswith("#"):
                for key, value in (token.split("=", 1) for token in line[1:].split() if "=" in token):
                    if key in header:
                        name, cast = header[key]
                        kwargs[name] = cast(value)
                    else:
                        kwargs["meta"][key] = value
            else:
                kind, rid, value = line.split()
                kwargs[{"src": "sources", "tgt": "targets"}[kind]][int(rid)] = float(value)
        parse_rows(path, "'# key=value ...' or 'src|tgt <region> <value>'", row)
        return cls(**kwargs)

"""Image containers, bit-exact file I/O, resampling and Gaussian filtering.

Conventions used throughout the package:

* Tiles are 2D arrays indexed ``pixels[y, x]``; stacks are 3D arrays indexed
  ``data[z, y, x]`` (x fastest in memory, matching the raw file layout).
* Voxel/pixel sizes are given in micrometres as ``(x, y, z)`` tuples.
* The centre of voxel ``i`` along an axis with spacing ``h`` sits at
  ``(i + 0.5) * h`` micrometres.
* All computation happens on float64 arrays; 16-bit quantization only occurs
  when writing ``u16`` payloads, and ``write_tile`` is where a tile's [0, 65535]
  range is checked.
* Every kernel that mirror-extends an array does it by ``np.pad(mode="reflect")``.
* A stack moves between disk and memory one z-slice at a time through
  ``StackWriter`` and ``StackReader``, or a slab of slices at a time through
  ``StackReader.slab``; ``write_stack`` and ``read_stack`` pass whole stacks
  through them.  ``read_tile_info`` reads a tile's placement and
  extent without its pixels.
* Files: a prefix names its files by appending the suffixes of its kind
  (``prefix_paths``): a stack ``.hdr``/``.raw``, a tile ``.pgm``/``.meta``, a model
  ``.manifest``/``.bin``, an atlas a stack plus ``.names``; a field is the stacks
  ``_dx/_dy/_dz`` and a saved flat field ``_CR/_CG``.  A prefix that ends in one of
  its kind's suffixes is taken without it; any other dot is part of the name.  Text
  headers and sidecars are ``key=value`` records (``parse_records``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHANNELS = ("CR", "CG", "CB")

U16_MAX = 65535


class FormatError(ValueError):
    """Raised when a file does not conform to its format."""


_SUFFIXES = {"stack": (".hdr", ".raw"), "tile": (".pgm", ".meta"),
            "model": (".manifest", ".bin"), "atlas": (".hdr", ".raw", ".names")}


def prefix_paths(prefix, kind: str) -> tuple[Path, ...]:
    """The files ``<prefix><suffix>`` for each suffix of ``kind`` in ``_SUFFIXES``; a
    prefix that ends in one of them is taken without it."""
    name, suffixes = str(prefix), _SUFFIXES[kind]
    name = next((name[:-len(s)] for s in suffixes if name.endswith(s)), name)
    return tuple(Path(name + s) for s in suffixes)


def parse_records(text: str, source) -> dict[str, str]:
    """The ``key=value`` lines of ``text`` by key, key and value stripped; a later line
    wins.  Blank lines and ``#`` lines are skipped; any other line without ``=`` is a
    ``FormatError`` that names ``source`` and the line number."""
    records = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{source} line {lineno}: expected key=value, got {line!r}")
        records[key.strip()] = value.strip()
    return records


def _as_float_grid(a, ndim, name):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"{name}: expected {ndim}D array, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name}: empty array")
    return a


@dataclass
class Tile2D:
    """One microscope image tile with its world placement.

    ``pixels`` is float64 in memory but represents 16-bit intensities; ``write_tile``
    rejects a tile with a value outside [0, 65535].  ``world_offset`` is the (x, y, z)
    position of the tile origin in micrometres.
    """

    pixels: np.ndarray
    channel: str
    world_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    tile_index: int = 0
    pixel_pitch: float = 1.34

    def __post_init__(self):
        self.pixels = _as_float_grid(self.pixels, 2, "Tile2D.pixels")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel tag {self.channel!r}")
        if self.pixel_pitch <= 0:
            raise ValueError("pixel_pitch must be > 0")
        self.world_offset = tuple(float(v) for v in self.world_offset)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class Stack3D:
    """3D image stack with per-axis voxel size.

    ``data`` has shape (nz, ny, nx); ``voxel_size`` is (vx, vy, vz) in µm.
    ``dtype`` records the storage type used on disk (``u16`` or ``f32``).
    """

    data: np.ndarray
    voxel_size: tuple[float, float, float]
    channel: str = "NONE"
    dtype: str = "f32"

    def __post_init__(self):
        self.data = _as_float_grid(self.data, 3, "Stack3D.data")
        self.voxel_size = tuple(float(v) for v in self.voxel_size)
        if any(v <= 0 for v in self.voxel_size):
            raise ValueError("voxel sizes must be > 0")
        if self.channel not in CHANNELS + ("NONE",):
            raise ValueError(f"unknown channel tag {self.channel!r}")
        if self.dtype not in ("u16", "f32"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        """(nx, ny, nz) voxel counts."""
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)


@dataclass
class SaliencyMap:
    """Grid of scores in [0, 1], congruent with a slice or a stack."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (2, 3):
            raise ValueError("saliency map must be 2D or 3D")
        lo, hi = float(self.values.min()), float(self.values.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"saliency values outside [0, 1]: [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# tile I/O: binary PGM (P5, maxval 65535, big-endian) + text sidecar
# ---------------------------------------------------------------------------


def _tile_paths(path) -> tuple[Path, Path]:
    return prefix_paths(path, "tile")


def write_tile(tile: Tile2D, path) -> Path:
    """Write a tile as 16-bit PGM plus a ``.meta`` sidecar; returns the PGM path."""
    pgm, meta = _tile_paths(path)
    pix = np.rint(tile.pixels)
    if (pix < 0).any() or (pix > U16_MAX).any():
        raise ValueError("tile intensities outside u16 range")
    header = f"P5\n{tile.width} {tile.height}\n{U16_MAX}\n".encode("ascii")
    pgm.write_bytes(header + pix.astype(">u2").tobytes())
    x, y, z = tile.world_offset
    meta.write_text(
        f"channel={tile.channel}\n"
        f"offset_um={x!r} {y!r} {z!r}\n"
        f"pitch_um={tile.pixel_pitch!r}\n"
        f"index={tile.tile_index}\n"
    )
    return pgm


def _parse_pgm_header(blob: bytes):
    # magic, width, height, maxval as whitespace-separated tokens; '#' comments
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(blob):
            raise FormatError("truncated PGM header")
        m = re.compile(rb"\s*(#[^\n]*\n)*\s*(\S+)").match(blob, pos)
        if m is None:
            raise FormatError("malformed PGM header")
        tokens.append(m.group(2))
        pos = m.end()
    if tokens[0] != b"P5":
        raise FormatError(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FormatError("non-numeric PGM header field") from exc
    if maxval != U16_MAX:
        raise FormatError(f"expected maxval {U16_MAX}, got {maxval}")
    # payload starts after exactly one whitespace byte past maxval
    return width, height, pos + 1


def _read_sidecar(meta: Path) -> dict:
    fields = parse_records(meta.read_text(), meta)
    try:
        channel = fields["channel"]
        ox, oy, oz = (float(v) for v in fields["offset_um"].split())
        pitch = float(fields["pitch_um"])
        index = int(fields["index"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed sidecar {meta}: {exc}") from exc
    if channel not in CHANNELS:
        raise FormatError(f"unknown channel tag {channel!r}")
    return dict(channel=channel, world_offset=(ox, oy, oz), tile_index=index, pixel_pitch=pitch)


def read_tile(path) -> Tile2D:
    """Read a PGM tile and its sidecar metadata."""
    pgm, meta = _tile_paths(path)
    blob = pgm.read_bytes()
    width, height, offset = _parse_pgm_header(blob)
    if len(blob) - offset != width * height * 2:
        raise FormatError(
            f"payload is {len(blob) - offset} bytes, expected {width * height * 2} "
            f"for {width}x{height}"
        )
    pixels = np.frombuffer(blob, dtype=">u2", count=width * height, offset=offset)
    return Tile2D(pixels=pixels.reshape(height, width).astype(np.float64), **_read_sidecar(meta))


@dataclass(frozen=True)
class TileInfo:
    """A tile's sidecar metadata and PGM extent, read without its pixels."""

    path: Path
    channel: str
    world_offset: tuple[float, float, float]
    tile_index: int
    pixel_pitch: float
    width: int
    height: int


def read_tile_info(path) -> TileInfo:
    """Read a tile's sidecar and PGM header; no pixel is read."""
    pgm, meta = _tile_paths(path)
    with open(pgm, "rb") as f:
        head = f.read(256)
        while True:  # comments may make a header longer than the first read
            try:
                width, height, _ = _parse_pgm_header(head)
                break
            except FormatError:
                more = f.read(len(head))
                if not more:
                    raise
                head += more
    return TileInfo(path=pgm, width=width, height=height, **_read_sidecar(meta))


# ---------------------------------------------------------------------------
# stack I/O: text header (.hdr) + little-endian raw payload (.raw), x fastest
# ---------------------------------------------------------------------------

_STACK_DTYPES = {"u16": "<u2", "f32": "<f4"}


def _stack_paths(prefix) -> tuple[Path, Path]:
    return prefix_paths(prefix, "stack")


def _write_header(hdr: Path, dims, voxel_size, dtype: str, channel: str) -> None:
    nx, ny, nz = dims
    vx, vy, vz = voxel_size
    hdr.write_text(
        f"dims={nx} {ny} {nz}\n"
        f"voxel_um={vx!r} {vy!r} {vz!r}\n"
        f"dtype={dtype}\n"
        f"channel={channel}\n"
    )


def _read_header(hdr: Path):
    """``(dims, voxel_size, dtype, channel)`` of a stack header."""
    fields = parse_records(hdr.read_text(), hdr)
    try:
        nx, ny, nz = (int(v) for v in fields["dims"].split())
        voxel = tuple(float(v) for v in fields["voxel_um"].split())
        dtype = fields["dtype"]
        channel = fields["channel"]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed header {hdr}: {exc}") from exc
    if dtype not in _STACK_DTYPES:
        raise FormatError(f"unsupported dtype {dtype!r}")
    if len(voxel) != 3:
        raise FormatError("voxel_um needs three values")
    return (nx, ny, nz), voxel, dtype, channel


class StackWriter:
    """Write a stack one z-slice at a time, quantizing u16 slices as ``write_stack`` does.

    ``<prefix>.raw`` grows by one slice per ``write``.  ``<prefix>.hdr`` is removed on
    opening and written by ``close`` only once all ``nz`` slices are in, so a stack
    whose writing failed or was killed has no header and cannot be read.
    """

    def __init__(self, prefix, dims, voxel_size, channel: str = "NONE", dtype: str = "f32"):
        self.dims = tuple(int(n) for n in dims)
        self.voxel_size = tuple(float(v) for v in voxel_size)
        if any(v <= 0 for v in self.voxel_size):
            raise ValueError("voxel sizes must be > 0")
        if channel not in CHANNELS + ("NONE",):
            raise ValueError(f"unknown channel tag {channel!r}")
        if dtype not in _STACK_DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        self.channel, self.dtype = channel, dtype
        self.hdr, self.raw = _stack_paths(prefix)
        self.hdr.unlink(missing_ok=True)
        self._file = open(self.raw, "wb")
        self.written = 0

    def write(self, plane) -> None:
        plane = np.asarray(plane, dtype=np.float64)
        nx, ny, nz = self.dims
        if plane.shape != (ny, nx):
            raise ValueError(f"slice shape {plane.shape} != ({ny}, {nx})")
        if self.written == nz:
            raise ValueError(f"{self.raw}: all {nz} slices already written")
        if self.dtype == "u16":
            payload = np.rint(plane)
            payload = np.clip(payload, 0, U16_MAX, out=payload).astype("<u2")
        else:
            payload = plane.astype("<f4")
        self._file.write(payload.data)
        self.written += 1

    def close(self) -> None:
        """Close the payload and write the header, once every slice is in."""
        self._file.close()
        if self.written != self.dims[2]:
            raise ValueError(f"{self.raw}: {self.written} of {self.dims[2]} slices written")
        _write_header(self.hdr, self.dims, self.voxel_size, self.dtype, self.channel)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._file.close()


class StackReader:
    """Read a stack one z-slice at a time; iterating yields float64 (ny, nx) slices."""

    def __init__(self, prefix):
        self.hdr, self.raw = _stack_paths(prefix)
        self.dims, self.voxel_size, self.dtype, self.channel = _read_header(self.hdr)
        nx, ny, nz = self.dims
        self._slice_bytes = nx * ny * np.dtype(_STACK_DTYPES[self.dtype]).itemsize
        size = self.raw.stat().st_size
        if size != nz * self._slice_bytes:
            raise FormatError(f"payload is {size} bytes, expected {nz * self._slice_bytes}")

    @property
    def shape(self) -> tuple[int, int, int]:
        """(nz, ny, nx), the shape of the stack's data array."""
        nx, ny, nz = self.dims
        return (nz, ny, nx)

    def _payload_slices(self):
        nx, ny, nz = self.dims
        with open(self.raw, "rb") as f:
            for _ in range(nz):
                blob = f.read(self._slice_bytes)
                yield np.frombuffer(blob, dtype=_STACK_DTYPES[self.dtype]).reshape(ny, nx)

    def __iter__(self):
        for plane in self._payload_slices():
            yield plane.astype(np.float64)

    def slab(self, z0: int, z1: int) -> np.ndarray:
        """Slices ``z0:z1`` as one float64 (z1 - z0, ny, nx) array; only they are read."""
        nx, ny, nz = self.dims
        if not 0 <= z0 <= z1 <= nz:
            raise IndexError(f"slab {z0}:{z1} outside 0:{nz}")
        with open(self.raw, "rb") as f:
            f.seek(z0 * self._slice_bytes)
            blob = f.read((z1 - z0) * self._slice_bytes)
        payload = np.frombuffer(blob, dtype=_STACK_DTYPES[self.dtype])
        return payload.reshape(z1 - z0, ny, nx).astype(np.float64)


def write_stack(stack: Stack3D, prefix) -> Path:
    """Write ``<prefix>.hdr`` and ``<prefix>.raw``; u16 payloads are quantized."""
    with StackWriter(prefix, stack.dims, stack.voxel_size, stack.channel, stack.dtype) as out:
        for plane in stack.data:
            out.write(plane)
    return out.hdr


def read_stack(prefix) -> Stack3D:
    reader = StackReader(prefix)
    data = np.empty(reader.shape, dtype=np.float64)
    for z, plane in enumerate(reader._payload_slices()):
        data[z] = plane
    return Stack3D(data=data, voxel_size=reader.voxel_size, channel=reader.channel,
                   dtype=reader.dtype)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def _axis_bins(n: int, h_src: float, h_tgt: float) -> np.ndarray:
    """Target bin index for each source voxel along one axis (centre rule)."""
    centers = (np.arange(n) + 0.5) * h_src
    return np.floor(centers / h_tgt).astype(np.int64)


class BoxGrid:
    """The coarser grid of a box average, and the source voxels each output voxel takes.

    Each output voxel is the mean of the source voxels whose centres fall inside it.
    ``target_voxel`` is a scalar (isotropic) or an (x, y, z) tuple in µm and must be
    >= the source spacing on every axis.  ``z_ranges[k]`` is the ``(z0, z1)`` range of
    source slices that output slice ``k`` averages, so a stack can be binned one
    output slice at a time from the source slices it covers.
    """

    def __init__(self, shape, voxel_size, target_voxel):
        if np.isscalar(target_voxel):
            target = (float(target_voxel),) * 3
        else:
            target = tuple(float(v) for v in target_voxel)
        for t, s in zip(target, voxel_size):
            if t < s - 1e-9:
                raise ValueError(f"target voxel {t} µm finer than source {s} µm")
        self.voxel_size = target
        nz, ny, nx = shape
        bz = _axis_bins(nz, voxel_size[2], target[2])
        self._by = _axis_bins(ny, voxel_size[1], target[1])
        self._bx = _axis_bins(nx, voxel_size[0], target[0])
        self.shape = (int(bz[-1]) + 1, int(self._by[-1]) + 1, int(self._bx[-1]) + 1)
        bounds = np.searchsorted(bz, np.arange(self.shape[0] + 1))
        self.z_ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        self._counts = {}  # source voxels per output voxel, by slab length

    def mean(self, slab: np.ndarray) -> np.ndarray:
        """The (oy, ox) output slice of the source slices ``slab`` of one z-range.

        ``bincount`` adds each bin's voxels in z, y, x order, as one ``bincount`` over
        the whole stack would, so binning slice by slice gives the same bits.
        """
        _, oy, ox = self.shape
        flat = (self._by[:, None] * ox + self._bx[None, :]).ravel()
        if len(slab) > 1:
            flat = np.tile(flat, len(slab))
        sums = np.bincount(flat, weights=slab.ravel(), minlength=oy * ox)
        counts = self._counts.get(len(slab))
        if counts is None:
            counts = self._counts[len(slab)] = np.bincount(flat, minlength=oy * ox)
        return (sums / counts).reshape(oy, ox)


def downsample_stack(stack: Stack3D, target_voxel) -> Stack3D:
    """Box-average a stack onto a coarser grid (see ``BoxGrid``)."""
    grid = BoxGrid(stack.data.shape, stack.voxel_size, target_voxel)
    out = np.stack([grid.mean(stack.data[z0:z1]) for z0, z1 in grid.z_ranges])
    # box means are fractional even for u16 input; store as float
    return Stack3D(data=out, voxel_size=grid.voxel_size, channel=stack.channel, dtype="f32")


# ---------------------------------------------------------------------------
# separable Gaussian filtering
# ---------------------------------------------------------------------------


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized Gaussian samples truncated at 4*sigma (odd length)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    radius = max(1, int(math.ceil(4.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _convolve_axis(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    radius = len(kernel) // 2
    widths = [(0, 0)] * a.ndim
    widths[axis] = (radius, radius)
    padded = np.pad(np.asarray(a, dtype=np.float64), widths, mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=axis)
    return np.tensordot(windows, kernel, axes=([-1], [0]))


def gaussian_blur(image, sigma, voxel_size=1.0) -> np.ndarray:
    """Separable Gaussian blur with mirror boundary handling.

    ``sigma`` is isotropic in µm; ``voxel_size`` (scalar or per-axis, ordered
    like the array axes) converts it to fractional voxel units per axis.
    Pass ``voxel_size=1.0`` to give sigma directly in pixels.  The kernel is
    truncated at 4*sigma and renormalized, so a constant image is invariant.
    """
    a = np.asarray(image, dtype=np.float64)
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if np.isscalar(voxel_size):
        voxels = (float(voxel_size),) * a.ndim
    else:
        voxels = tuple(float(v) for v in voxel_size)
        if len(voxels) != a.ndim:
            raise ValueError("voxel_size length must match array rank")
    out = a
    for axis, v in enumerate(voxels):
        out = _convolve_axis(out, gaussian_kernel1d(sigma / v), axis)
    return out

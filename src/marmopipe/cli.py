"""Batch driver: configuration, pipeline stages, subcommands.

The pipeline runs stage (a) flat-field + stitching, (b) injection-site
localization, (c) tracer segmentation, (d) mapping to reference space and
(e) connectivity, entirely file-driven: each stage reads and writes files in
the run directory, is skipped only when its outputs exist and its key is the one
``stages.json`` records, and appends a ``stage=... status=... seconds=... hash=...``
line.  The key is a sha256 of the stage's config values in canonical form (the
``repr`` of each typed value, so ``1.1`` and ``1.10`` are one key; a key that only the
backend or flat-field mode not chosen reads is left out), the size and mtime of the
files they name (each tile's PGM and ``.meta`` sidecar), and the recorded sha256 of
each run-dir file it reads (hashed then if no stage recorded it), so a stage rerun to
the same bytes reruns no stage after it.  ``stages.json`` is
``{stage: {"key", "outputs": {file: sha256}}}``.

All five stages stream: they hold one section per thread, never a whole
high-resolution volume, and append each output slice to its stack as it is made.
Locate cuts each ROI window from its own slice, map reads a field slice and the
source slices it touches for each output slice, and connectivity tallies the
atlas regions one slice at a time.

Each stage is also a subcommand, ``marmopipe <stage> --out RUN [--<key> ...]``, that
runs its ``STAGE_TABLE`` row in RUN as ``run`` does (key, skip, output removal,
``stages.json`` record) with the stage's config keys as flags and prints its report line.

Configuration files are line-oriented ``key=value`` with ``#`` comments; each key
is one row of ``PARAMS``, which gives its type, default and check.
Exit codes: 0 ok, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import collections
import difflib
import functools
import hashlib
import json
import logging
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import evalsynth, flatfield, imgcore, injsite, mapping, nnseg, stitch, tracerseg


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 1."""


# ---------------------------------------------------------------------------
# configuration: one Param row per key, read by config files, validation, stage keys
# and stage subcommand flags.  ``type`` parses a config string, or a value already of
# the type; ``check(value)`` says what is wrong with a typed value, or returns None.
# ``when=(key, value)`` marks a key that is read only when ``key`` has that value (a
# backend, or ``flatfield=estimate``); stage keys leave it out under any other value.
# ---------------------------------------------------------------------------


def numbers(value) -> tuple[float, ...]:
    """Comma-separated numbers (``2,3,4,5``), or a sequence of numbers."""
    items = value.split(",") if isinstance(value, str) else value
    return tuple(float(v) for v in items if str(v).strip())


Param = collections.namedtuple("Param", "name type default check when", defaults=(None, None))


def _check(ok, expected: str):
    return lambda value: None if ok(value) else f"expected {expected}, got {value!r}"


def _one_of(*choices):
    return _check(lambda v: v in choices, f"one of {choices}")


_POSITIVE = _check(lambda v: v > 0, "a value > 0")
_FRACTION = _check(lambda v: 0 <= v <= 1, "a value in [0, 1]")


def _param_files(key: str, value) -> list[Path]:
    """The files that a path-valued config value names; each tile is its PGM and sidecar."""
    if key == "tiles":
        return [p for pgm in sorted(Path(value).glob("*.pgm")) for p in imgcore._tile_paths(pgm)]
    if value in ("", "estimate", "none", "identity"):
        return []
    if key in ("atlas", "atlas_low"):
        return list(imgcore.prefix_paths(value, "atlas"))
    if key in ("cell_model", "tracer_model"):
        return list(imgcore.prefix_paths(value, "model"))
    tags = {"flatfield": ("_CR", "_CG"), "field": ("_dx", "_dy", "_dz")}.get(key, ())
    return [p for tag in tags for p in imgcore._stack_paths(value + tag)]


def _file_set(key: str, expected: str, *words):
    """The check of a path-valued key: one of ``words``, or a prefix every file of whose
    set (``_param_files``; an atlas's ``.names`` may be missing) exists."""
    def ok(value):
        files = _param_files(key, value)
        return value in words or (bool(files) and all(
            p.exists() for p in files if p.suffix != ".names"))
    return _check(ok, expected)


_ATLAS = _file_set("atlas", "an atlas prefix (.hdr and .raw)", "")
_MODEL = _file_set("cell_model", "a model prefix (.manifest and .bin)", "")
_HESSIAN, _UNET_CELLS = ("cell_backend", "hessian"), ("cell_backend", "unet")
_THRESHOLD, _UNET_TRACER = ("tracer_backend", "threshold"), ("tracer_backend", "unet")

PARAMS = {p.name: p for p in (
    Param("tiles", str, "", _check(lambda v: not v or Path(v).is_dir(), "a tile directory")),
    Param("out", str, ""),
    Param("threads", int, 1, _check(lambda v: v >= 1, "an integer >= 1")),
    Param("flatfield", str, "estimate", _file_set(
        "flatfield", "estimate, none or a saved field prefix (_CR and _CG stacks)",
        "estimate", "none")),
    Param("ff_lower", float, 2.0, when=("flatfield", "estimate")),
    Param("ff_upper", float, 2500.0, when=("flatfield", "estimate")),
    Param("margin", int, 50, _check(lambda v: v >= 0, "an integer >= 0")),
    Param("low_voxel_um", float, 50.0, _POSITIVE),
    Param("traw", float, 4500.0),
    Param("sigma_um", float, 150.0, _POSITIVE),
    Param("thigh", float, 0.5, _FRACTION, when=_UNET_CELLS),
    Param("cell_backend", str, "hessian", _one_of("hessian", "unet")),
    Param("cell_model", str, "", _MODEL, when=_UNET_CELLS),
    Param("hessian_sigmas", numbers, (2.0, 3.0, 4.0, 5.0),
          _check(lambda v: v and min(v) > 0, "comma-separated numbers > 0"), when=_HESSIAN),
    Param("hessian_cutoff", float, 0.0, when=_HESSIAN),
    Param("roi_pad", int, 8, _check(lambda v: v >= 0, "an integer >= 0")),
    Param("tracer_backend", str, "threshold", _one_of("threshold", "unet")),
    Param("tracer_model", str, "", _MODEL, when=_UNET_TRACER),
    Param("t", float, 1.1, _POSITIVE),
    Param("hi", float, 300.0, when=_THRESHOLD),
    Param("lo", float, 100.0, _POSITIVE, when=_THRESHOLD),
    Param("close", int, 3, _check(lambda v: v >= 1, "an integer >= 1"), when=_THRESHOLD),
    Param("theta", float, 0.5, _FRACTION, when=_UNET_TRACER),
    Param("field", str, "identity", _file_set(
        "field", "identity or a field prefix (_dx, _dy and _dz stacks)", "identity")),
    Param("atlas", str, "", _ATLAS),
    Param("atlas_low", str, "", _ATLAS),
    Param("sources", str, "mask", _one_of("mask", "cells")),
    Param("normalize", int, 0, _one_of(0, 1)),
    Param("brain_id", str, "brain"),
    Param("injection_id", str, "inj"),
)}

_DEFAULTS = {name: p.default for name, p in PARAMS.items()}


def _typed(raw: dict) -> tuple[dict, list[str]]:
    """Every key's value, from ``raw`` or the default, parsed by its row's type; and a
    problem for each unknown key and each value that does not parse (left out)."""
    values, errors = {}, []
    for key in (k for k in raw if k not in PARAMS):
        hint = difflib.get_close_matches(key, PARAMS, n=1)
        errors.append(f"unknown key {key!r}" + (f"; did you mean {hint[0]!r}?" if hint else ""))
    for p in PARAMS.values():
        value = raw.get(p.name, p.default)
        try:
            values[p.name] = p.type(value)
        except (TypeError, ValueError):
            errors.append(f"{p.name}: cannot read {value!r} as {p.type.__name__}")
    return values, errors


@dataclass
class PipelineConfig:
    """Every key's typed value.  ``values`` may hold config strings or typed values;
    each is parsed by its row, and the keys it leaves out take their defaults."""

    values: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.values, errors = _typed(self.values)
        if errors:
            raise ConfigError("; ".join(errors))

    def __getattr__(self, key):
        values = object.__getattribute__(self, "values")
        if key in values:
            return values[key]
        raise AttributeError(key)


def parse_config_text(text: str) -> dict:
    try:
        return imgcore.parse_records(text, "config")
    except imgcore.FormatError as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(raw: dict) -> list[str]:
    """Return a list of human-readable problems (empty = valid); each names its key."""
    values, errors = _typed(raw)
    errors += [f"{key}: {problem}" for key, value in values.items()
               if PARAMS[key].check and (problem := PARAMS[key].check(value))]
    for low, high in (("ff_lower", "ff_upper"), ("lo", "hi")):
        if {low, high} <= values.keys() and values[low] >= values[high]:
            errors.append(f"need {low} < {high}, got {values[low]!r} >= {values[high]!r}")
    for backend, model in (("cell_backend", "cell_model"), ("tracer_backend", "tracer_model")):
        if values[backend] == "unet" and not values[model]:
            errors.append(f"{backend}=unet requires {model}=<model prefix>")
    return errors + _grid_problems(values)


def _grid_problems(values: dict) -> list[str]:
    """With ``sources=mask`` the source atlas (``atlas_low``, else ``atlas``) must have the
    in-plane voxel of the mask's grid: ``low_voxel_um`` for ``field=identity``, else the
    field's; only headers are read.  A config without ``tiles`` maps no mask of its own."""
    key = "atlas_low" if values["atlas_low"] else "atlas"
    if values["sources"] != "mask" or not values[key] or not values["tiles"]:
        return []
    try:
        atlas_um = imgcore.StackReader(values[key]).voxel_size[:2]
        grid_um = ((values["low_voxel_um"],) * 2 if values["field"] == "identity"
                   else imgcore.StackReader(values["field"] + "_dx").voxel_size[:2])
    except (KeyError, OSError, ValueError):  # a missing stack or value has its own message
        return []
    if np.allclose(atlas_um, grid_um, rtol=1e-6, atol=0):
        return []
    return [f"{key}: atlas voxel {atlas_um} µm in x, y, but sources=mask maps the injection "
            f"mask onto a {grid_um} µm grid; give atlas_low=<an atlas on that grid>"]


def checked_config(raw: dict) -> PipelineConfig:
    """The config of ``raw`` once ``validate_config`` finds no problem; else a ConfigError."""
    errors = validate_config(raw)
    if errors:
        raise ConfigError("; ".join(errors))
    return PipelineConfig(values=raw)


def load_config(path) -> PipelineConfig:
    try:
        raw = parse_config_text(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return checked_config(raw)


# ---------------------------------------------------------------------------
# stage machinery
# ---------------------------------------------------------------------------


def _imap(fn, items, threads: int):
    """Lazy ordered map over ``items`` that keeps at most ``threads`` calls in flight.

    Items are drawn from ``items`` only as calls are started, so a stage streaming
    sections through it holds ``threads`` of them at a time, and results do not
    depend on the thread count.
    """
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = collections.deque()
        try:
            for item in items:
                if len(pending) == threads:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:  # a call failed or the consumer stopped: start no more calls
            for future in pending:
                future.cancel()


def _hash_files(paths) -> dict[str, str]:
    """The sha256 of each file, by file name; each file is read once."""
    hashes = {}
    for p in map(Path, paths):
        digest = hashlib.sha256()
        with open(p, "rb") as f:
            while chunk := f.read(1 << 20):
                digest.update(chunk)
        hashes[p.name] = digest.hexdigest()
    return hashes


@dataclass
class RunReport:
    lines: list = dc_field(default_factory=list)

    def add(self, stage: str, status: str, seconds: float, hashes=None):
        """``hash=`` digests ``hashes``, the stage's recorded ``{file: sha256}``."""
        digest = hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()
        extra = f" hash={digest[:12]}" if hashes else ""
        self.lines.append(f"stage={stage} status={status} seconds={seconds:.3f}{extra}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _stacks(*prefixes) -> tuple[str, ...]:
    return tuple(str(p) for prefix in prefixes for p in imgcore._stack_paths(prefix))


# One pipeline stage: body(cfg, out) writes the files named in `outputs(cfg)` into the
# run directory `out` from the config keys in `params` and the earlier outputs `reads(cfg)`;
# the keys in `needs` must not be empty.
Stage = collections.namedtuple("Stage", "name reads params outputs body needs", defaults=((),))


def _check_needs(command: str, stages, cfg: PipelineConfig) -> None:
    """A ConfigError naming the keys that ``stages`` need and ``cfg`` leaves empty: ``out``
    and each stage's ``needs``."""
    keys = dict.fromkeys(("out", *(key for stage in stages for key in stage.needs)))
    missing = [key for key in keys if not cfg.values[key]]
    if missing:
        raise ConfigError(f"{command} requires " + " and ".join(missing))


def _keyed_params(stage: Stage, cfg: PipelineConfig) -> list[str]:
    """The stage's params that its key holds under ``cfg``: all but those whose
    ``when`` value ``cfg`` does not choose."""
    whens = {key: PARAMS[key].when for key in stage.params}
    return [key for key, when in whens.items() if not when or cfg.values[when[0]] == when[1]]


def _stage_key(stage: Stage, cfg: PipelineConfig, stored: dict) -> str:
    """The stage's key: its config values, the size and mtime of the files they name
    (not read: tiles are large), and the sha256 ``stored`` records for each file it reads;
    a file it reads that no record names (put in the run dir by hand) is hashed here."""
    recorded = {name: h for record in stored.values() for name, h in record["outputs"].items()}
    unrecorded = (Path(cfg.out) / name for name in stage.reads(cfg) if name not in recorded)
    recorded.update(_hash_files(filter(Path.exists, unrecorded)))
    digest = hashlib.sha256()
    for name in stage.reads(cfg):
        digest.update(f"{name}:{recorded.get(name)}\n".encode())
    for key in _keyed_params(stage, cfg):
        value = cfg.values[key]
        digest.update(f"{key}={value!r}\n".encode())
        for p in filter(Path.exists, _param_files(key, value)):
            digest.update(f"{p.name} {p.stat().st_size} {p.stat().st_mtime_ns}\n".encode())
    return digest.hexdigest()


def _save_records(out: Path, stored: dict) -> None:
    (out / "stages.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def _run_stage(stage: Stage, cfg: PipelineConfig, report: RunReport) -> None:
    """Run or skip one stage in ``cfg.out`` and add its line to ``report``.  Its outputs,
    those its record names (an earlier config's) too, and then its record are removed
    before the body runs, and its key and output hashes are recorded after it returns,
    so a failed or killed stage always reruns and leaves no output of an earlier run
    behind.  The outputs of the stages after it stay.  A ``stages.json`` that is missing
    or of another form (an older ``{stage: key}``) counts as empty."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / name for name in stage.outputs(cfg)]
    try:
        stored = {name: {"key": str(r["key"]), "outputs": dict(r["outputs"])}
                  for name, r in json.loads((out / "stages.json").read_text()).items()}
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        stored = {}
    key = _stage_key(stage, cfg, stored)
    record = stored.pop(stage.name, {})
    if record.get("key") == key and all(p.exists() for p in outputs):
        report.add(stage.name, "skip", 0.0, record["outputs"])
        return
    for p in {*outputs, *(out / name for name in record.get("outputs", ()))}:
        p.unlink(missing_ok=True)
    _save_records(out, stored)
    t0 = time.time()
    try:
        stage.body(cfg, out)
    except Exception as exc:
        report.add(stage.name, "fail", 0.0)
        raise RuntimeError(f"stage {stage.name} failed: {exc}") from exc
    seconds = time.time() - t0
    stored[stage.name] = {"key": key, "outputs": _hash_files(outputs)}
    _save_records(out, stored)
    report.add(stage.name, "ok", seconds, stored[stage.name]["outputs"])


# ---------------------------------------------------------------------------
# stages: each body(cfg, out) reads and writes the files its table row names in the
# run directory ``out``; the table runs them in order
# ---------------------------------------------------------------------------


def _tile_index(tile_dir) -> dict[str, list[imgcore.TileInfo]]:
    """Tile headers by channel, each list in sorted path order; no pixel is read."""
    index = {}
    for p in sorted(Path(tile_dir).glob("*.pgm")):
        info = imgcore.read_tile_info(p)
        index.setdefault(info.channel, []).append(info)
    return index


def _estimate_field(infos, lower: float, upper: float) -> flatfield.ShadingField:
    """Stream a channel's tiles, in the given order, through the shading estimate."""
    return flatfield.estimate_shading((imgcore.read_tile(i.path) for i in infos), lower, upper)


@dataclass
class _ChannelPlan:
    """One channel's sections (tile headers by ascending z), their layouts, the high
    stack's (nx, ny, nz) and voxel size, and the grid its low stack is binned onto."""

    sections: list
    layouts: list
    dims: tuple
    voxel_size: tuple
    low: imgcore.BoxGrid


def _plan_channel(infos, margin: int, low_voxel_um: float) -> _ChannelPlan:
    """Lay out every section of one channel from its tile headers, and check that the
    sections stack and bin: equal extents, uniform spacing, a target no finer."""
    by_z = {}
    for info in infos:
        by_z.setdefault(info.world_offset[2], []).append(info)
    zs = sorted(by_z)
    layouts = [stitch.plan_layout(by_z[z], margin) for z in zs]
    extents = [layout.extent for layout in layouts]
    dz = stitch.section_spacing(zs, extents)
    pitch = infos[0].pixel_pitch
    dims, voxel = (*extents[0], len(zs)), (pitch, pitch, dz)
    low = imgcore.BoxGrid(dims[::-1], voxel, low_voxel_um)
    return _ChannelPlan([by_z[z] for z in zs], layouts, dims, voxel, low)


def stitch_tiles(cfg: PipelineConfig, out: Path) -> None:
    """Flat-field correct and stitch the tiles of ``cfg.tiles`` into ``out/high_*`` and
    ``out/low_*``; write the first channel's tile placement, one ``z= index= offset=``
    line per tile, to ``out/layout.txt``.

    Every section is planned from the tile headers first, so the checks on layout,
    spacing and binning run before a slice is written.  With ``flatfield=estimate``,
    pass 1 streams each channel's tiles through the shading estimate.  Pass 2 stitches
    one channel at a time (``_stitch_channel``).
    """
    index = _tile_index(cfg.tiles)
    if not index:
        raise FileNotFoundError(f"no .pgm tiles under {cfg.tiles}")
    plans = {ch: _plan_channel(infos, cfg.margin, cfg.low_voxel_um)
             for ch, infos in sorted(index.items())}
    first = plans[min(plans)]
    (out / "layout.txt").write_text("".join(
        f"z={infos[0].world_offset[2]} index={info.tile_index} offset={ox} {oy}\n"
        for infos, layout in zip(first.sections, first.layouts)
        for info, (ox, oy) in zip(infos, layout.offsets)))

    fields = {}
    mode = cfg.flatfield
    for ch in ("CR", "CG"):
        if ch not in index or mode == "none":
            continue
        if mode == "estimate":
            fields[ch] = _estimate_field(index[ch], cfg.ff_lower, cfg.ff_upper)
            imgcore.write_stack(flatfield.field_to_stack(fields[ch], index[ch][0].pixel_pitch),
                                out / f"field_{ch}")
        else:
            fields[ch] = flatfield.field_from_stack(imgcore.read_stack(f"{mode}_{ch}"))

    for ch in list(plans):  # a channel's plan is dropped once its pass is done
        _stitch_channel(cfg, ch, plans.pop(ch), fields.get(ch), out)


def _stitch_channel(cfg: PipelineConfig, ch: str, plan: _ChannelPlan, field, out: Path) -> None:
    """Read, correct by ``field`` (if any) and assemble one section at a time
    (``threads`` at once), append it to ``high_<ch>`` and bin each complete z-bin into
    ``low_<ch>``.  The blend coverage of the last ``threads`` layouts is kept for the
    pass, so sections that share a layout compute it once."""
    coverage = functools.lru_cache(maxsize=cfg.threads)(stitch.blend_coverage)

    def mosaic(section):
        infos, layout = section
        tiles = [imgcore.read_tile(info.path) for info in infos]
        if field is not None:
            tiles = [flatfield.correct_tile(t, field) for t in tiles]
        blend = coverage(tuple(layout.offsets), layout.extent, layout.tile_extent)
        return stitch.assemble_slice(tiles, layout=layout, margin=cfg.margin, coverage=blend)

    mosaics = _imap(mosaic, zip(plan.sections, plan.layouts), cfg.threads)
    with imgcore.StackWriter(out / f"high_{ch}", plan.dims, plan.voxel_size, ch, "u16") as high, \
            imgcore.StackWriter(out / f"low_{ch}", plan.low.shape[::-1], plan.low.voxel_size,
                                ch, "f32") as low:
        for z0, z1 in plan.low.z_ranges:
            slab = np.stack([next(mosaics) for _ in range(z0, z1)])
            for plane in slab:
                high.write(plane)
            low.write(plan.low.mean(slab))


def _cells_in_roi(cfg: PipelineConfig, high_path, mask):
    """Detect cells with ``cfg.cell_backend`` inside the mask's high-resolution ROI
    rectangles; each window is cut from its own slice of the stack ``high_path``."""
    model = nnseg.load_model(cfg.cell_model) if cfg.cell_backend == "unet" else None
    cutoff = cfg.thigh if model is not None else cfg.hessian_cutoff
    high_cb = imgcore.StackReader(high_path)
    roi = injsite.roi_from_mask(mask, high_cb.dims[:2], high_voxel_um=high_cb.voxel_size[0],
                                pad_px=cfg.roi_pad)
    points, scores = [], []
    for z, (x0, y0, x1, y1) in sorted(roi.items()):
        window = high_cb.slab(z, z + 1)[0, y0:y1, x0:x1]
        if window.size == 0:
            continue
        if model is not None:
            sal = nnseg.sliding_window_predict(model, window).values
        else:
            sal = injsite.hessian_cell_filter(window, cfg.hessian_sigmas)
        cloud = injsite.detect_cells(sal, t_high=cutoff)
        if len(cloud):
            points.append(cloud.points + np.array([x0, y0, z]))
            scores.append(cloud.scores)
    return injsite.CellPointCloud(points=np.concatenate(points) if points else [],
                                  scores=np.concatenate(scores) if scores else [])


def locate_injection(cfg: PipelineConfig, out: Path) -> None:
    """Write the injection mask ``out/inj_mask`` from ``out/low_CB`` and the cells in it,
    detected in ``out/high_CB``, to ``out/cells.txt``."""
    low_cb = imgcore.read_stack(out / "low_CB")
    mask = injsite.rough_localize(low_cb, t_raw=cfg.traw, sigma_um=cfg.sigma_um)
    imgcore.write_stack(mask.mask, out / "inj_mask")
    if mask.empty:
        cloud = injsite.CellPointCloud(points=[], scores=[])
    else:
        cloud = _cells_in_roi(cfg, out / "high_CB", mask)
    cloud.save(out / "cells.txt")


def segment_tracer(cfg: PipelineConfig, out: Path) -> None:
    """Write the tracer signal ``out/tracer_L`` and mask ``out/tracer_mask``, reading
    ``out/high_CG`` and ``out/high_CR`` and writing both outputs one slice at a time."""
    cg = imgcore.StackReader(out / "high_CG")
    cr = imgcore.StackReader(out / "high_CR")
    if cg.shape != cr.shape:
        raise ValueError("C_G and C_R stacks are incongruent")
    model = nnseg.load_model(cfg.tracer_model) if cfg.tracer_backend == "unet" else None

    def segment(planes):
        cg_z, cr_z = planes
        if model is None:
            return tracerseg.threshold_pipeline(cg_z, cr_z, t=cfg.t, hi=cfg.hi, lo=cfg.lo,
                                                close_radius=cfg.close)
        sal = nnseg.sliding_window_predict(model, np.stack([cr_z, cg_z])).values
        sub = tracerseg.background_subtract(cg_z, cr_z, t=cfg.t)
        return tracerseg.compose_label(sal, sub, theta=cfg.theta)

    with imgcore.StackWriter(out / "tracer_L", cg.dims, cg.voxel_size, "CG", "f32") as signal, \
            imgcore.StackWriter(out / "tracer_mask", cg.dims, cg.voxel_size, "NONE", "u16") as mask:
        for label in _imap(segment, zip(cg, cr), cfg.threads):
            signal.write(label.signal)
            mask.write(label.mask)


def map_stacks(cfg: PipelineConfig, out: Path) -> None:
    """Resample ``out/tracer_L`` (linear) to ``out/mapped_L`` and ``out/inj_mask``
    (nearest) to ``out/mapped_mask`` through ``cfg.field``, one slice at a time.
    ``field=identity`` copies each source: resampling through a zero field on the
    source's own grid is an exact copy."""
    field = None if cfg.field == "identity" else cfg.field
    for src, interp, dst in (("tracer_L", "linear", "mapped_L"),
                             ("inj_mask", "nearest", "mapped_mask")):
        mapping.map_stack(out / src, field, interp, out / dst)


def connectivity_table(cfg: PipelineConfig, out: Path) -> None:
    """Write the region-wise table ``out/connectivity.txt`` from the signal
    ``out/mapped_L``; ``cfg.sources`` picks the sources: ``out/mapped_mask`` or
    ``out/cells.txt``.

    Shapes are checked from the headers before any slice is read.  One pass over the
    slices of ``atlas`` and the signal sums the targets, and counts the sources when
    they lie on that atlas: the cells, or a mask with no ``atlas_low``.  A mask on
    ``atlas_low`` is counted in a pass of its own.
    """
    atlas = imgcore.StackReader(cfg.atlas)
    source_atlas, mask, cloud = atlas, None, None
    if cfg.sources == "cells":
        cloud = injsite.CellPointCloud.load(out / "cells.txt")
    else:
        if cfg.atlas_low:
            source_atlas = imgcore.StackReader(cfg.atlas_low)
        mask = imgcore.StackReader(out / "mapped_mask")
        mapping.check_congruent("mask", mask.shape, source_atlas.shape)
    signal = imgcore.StackReader(out / "mapped_L")
    mapping.check_congruent("signal", signal.shape, atlas.shape)
    names = mapping.atlas_names(cfg.atlas)
    if source_atlas is atlas:
        tally = src_tally = mapping.tally_regions(atlas, names, signal=signal, mask=mask,
                                                  cells=cloud)
    else:
        tally = mapping.tally_regions(atlas, names, signal=signal)
        src_tally = mapping.tally_regions(source_atlas, mapping.atlas_names(cfg.atlas_low),
                                          mask=mask)
    sources, out_src = src_tally.sources()
    targets, out_tgt = tally.targets(normalize=bool(cfg.normalize))
    table = mapping.ConnectivityTable(
        brain_id=cfg.brain_id, injection_id=cfg.injection_id,
        sources={k: float(v) for k, v in sources.items()}, targets=targets,
        outside_source=float(out_src), outside_target=float(out_tgt),
        meta={"resolution_um": repr(signal.voxel_size[0])},
    )
    table.save(out / "connectivity.txt")


def _stitch_outputs(cfg: PipelineConfig) -> tuple[str, ...]:
    """Every channel's high and low stacks, the layout and, when the stage estimates
    them, the shading fields."""
    fields = ("field_CR", "field_CG") if cfg.flatfield == "estimate" else ()
    stacks = (f"{res}_{ch}" for ch in imgcore.CHANNELS for res in ("high", "low"))
    return _stacks(*stacks, *fields) + ("layout.txt",)


STAGE_TABLE = [
    Stage("stitch", lambda cfg: (),
          ("tiles", "flatfield", "ff_lower", "ff_upper", "margin", "low_voxel_um"),
          _stitch_outputs, stitch_tiles, needs=("tiles",)),
    Stage("locate", lambda cfg: _stacks("low_CB", "high_CB"),
          ("traw", "sigma_um", "cell_backend", "cell_model", "thigh", "hessian_sigmas",
           "hessian_cutoff", "roi_pad"),
          lambda cfg: _stacks("inj_mask") + ("cells.txt",), locate_injection),
    Stage("tracer", lambda cfg: _stacks("high_CG", "high_CR"),
          ("tracer_backend", "tracer_model", "t", "hi", "lo", "close", "theta"),
          lambda cfg: _stacks("tracer_L", "tracer_mask"), segment_tracer),
    Stage("map", lambda cfg: _stacks("tracer_L", "inj_mask"), ("field",),
          lambda cfg: _stacks("mapped_L", "mapped_mask"), map_stacks),
    Stage("connectivity", lambda cfg: _stacks("mapped_L") + (
              _stacks("mapped_mask") if cfg.sources == "mask" else ("cells.txt",)),
          ("atlas", "atlas_low", "sources", "normalize", "brain_id", "injection_id"),
          lambda cfg: ("connectivity.txt",), connectivity_table, needs=("atlas",)),
]


# (name, callable) pairs in pipeline order.  run_pipeline looks the callables
# up here at call time, so a profiler can wrap each stage by replacing its entry.
_STAGES = [(stage.name, functools.partial(_run_stage, stage)) for stage in STAGE_TABLE]


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Check ``cfg`` as a config file is checked and for the keys every stage needs, then
    run all stages in order; failures halt with the stage name attached."""
    checked_config(cfg.values)
    _check_needs("run", STAGE_TABLE, cfg)
    report = RunReport()
    try:
        for _, run_stage in _STAGES:
            run_stage(cfg, report)
    finally:
        (Path(cfg.out) / "report.txt").write_text(report.text())
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_phantom(args) -> int:
    spec = evalsynth.PhantomSpec.load(args.spec) if args.spec else evalsynth.PhantomSpec()
    out = Path(args.out)
    tile_dir = out / "tiles"
    tile_dir.mkdir(parents=True, exist_ok=True)
    tiles, truth = evalsynth.generate_phantom(spec)
    for ch, tile_list in sorted(tiles.items()):
        for tile in tile_list:
            z = int(round(tile.world_offset[2] / spec.z_step_um))
            imgcore.write_tile(tile, tile_dir / f"z{z:04d}_j{tile.tile_index:04d}_{ch}.pgm")
    truth.save(out / "truth")
    spec.save(out / "phantom_spec.txt")
    print(f"phantom written to {out} ({sum(len(v) for v in tiles.values())} tiles)")
    return 0


def _cmd_flatfield(args) -> int:
    infos = _tile_index(args.tiles).get(args.channel)
    if not infos:
        raise ConfigError(f"no {args.channel} tiles under {args.tiles}")
    field = _estimate_field(infos, args.lower, args.upper)
    imgcore.write_stack(flatfield.field_to_stack(field, infos[0].pixel_pitch), args.out)
    print(f"field written to {args.out} (tiles={field.sample_count})")
    return 0


def _flag_keys(stage: Stage) -> tuple[str, ...]:
    """A stage subcommand's config flags besides ``--out`` (every other key keeps its
    default): its stage's params, plus ``threads`` where sections run in parallel."""
    return (*stage.params, *(("threads",) if stage.name in ("stitch", "tracer") else ()))


def _cmd_train(args) -> int:
    in_channels = 1 if args.task == "cells" else 2
    images = imgcore.read_stack(args.stack)
    second = imgcore.read_stack(args.second) if in_channels == 2 else None
    labels = imgcore.read_stack(args.labels)
    net = nnseg.init_unet(args.depth, args.base, in_channels, seed=args.seed,
                          input_scale=1.0 / 65535.0)
    tile = args.tile if args.tile else nnseg.next_valid_input(args.depth, nnseg.margin(args.depth) + 32)
    weight_fn = nnseg.build_cell_weight_map if in_channels == 1 else nnseg.build_tracer_weight_map
    samples = []
    for z in range(images.data.shape[0]):
        image = images.data[z] if second is None else np.stack([second.data[z], images.data[z]])
        samples.extend(nnseg.sample_training_tiles(
            image, labels.data[z], n_dense=args.dense, n_sparse=args.sparse,
            tile=tile, seed=args.seed + z, weight_fn=weight_fn,
        ))
    trained, history = nnseg.train(net, samples, steps=args.steps,
                                   learning_rate=args.lr, seed=args.seed)
    nnseg.save_model(trained, args.out)
    print(f"trained {args.steps} steps; loss {history[0]:.4f} -> {history[-1]:.4f}")
    return 0


def _cmd_predict(args) -> int:
    """Write the model's saliency of each slice, read and written one slice at a time."""
    model = nnseg.load_model(args.model)
    stack = imgcore.StackReader(args.stack)
    images = iter(stack)
    if model.in_channels == 2:
        if not args.second:
            raise ConfigError("two-channel models need --second <C_R stack>")
        other = imgcore.StackReader(args.second)
        if other.shape != stack.shape:
            raise ValueError(f"--second stack {other.shape} does not match --in stack "
                             f"{stack.shape}")
        # channel order must match training: background first, tracer second
        images = (np.stack(planes) for planes in zip(other, stack))
    with imgcore.StackWriter(args.out, stack.dims, stack.voxel_size) as out:
        for image in images:
            out.write(nnseg.sliding_window_predict(model, image).values)
    print(f"saliency written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    truth_dir = Path(args.truth)
    run_dir = Path(args.run)
    lines = []
    cells_path = run_dir / "cells.txt"
    truth_cells = truth_dir / "cells.txt"
    if cells_path.exists() and truth_cells.exists():
        pred = injsite.CellPointCloud.load(cells_path)
        truth = injsite.CellPointCloud.load(truth_cells)
        m = evalsynth.match_detections(pred, truth.points, radius_px=args.radius)
        lines.append(f"cells tp={m.tp} fp={m.fp} fn={m.fn} f1={m.f1:.4f}")
    mask_path = run_dir / "tracer_mask"
    truth_mask = truth_dir / "tracer_mask"
    if all(imgcore._stack_paths(p)[0].exists() for p in (mask_path, truth_mask)):
        pred = imgcore.read_stack(mask_path).data > 0
        truth = imgcore.read_stack(truth_mask).data > 0
        sm = evalsynth.segmentation_metrics(pred, truth)
        lines.append(
            f"tracer precision={sm.precision:.4f} recall={sm.recall:.4f} "
            f"f1={sm.f1:.4f} iou={sm.iou:.4f}"
        )
    table_path = run_dir / "connectivity.txt"
    truth_table = truth_dir / "table.txt"
    if table_path.exists() and truth_table.exists():
        got = mapping.ConnectivityTable.load(table_path)
        want = mapping.ConnectivityTable.load(truth_table)
        src_ok = got.sources == want.sources
        tgt_ok = got.targets == want.targets
        lines.append(f"table sources_match={src_ok} targets_match={tgt_ok}")
    if not lines:
        raise ConfigError("nothing to evaluate (no matching outputs in run/truth dirs)")
    print("\n".join(lines))
    return 0


def _cmd_run(args) -> int:
    print(run_pipeline(load_config(args.config)).text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marmopipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler=None, stage=None, out="output path"):
        """A subcommand with ``--out``; a stage's subcommand takes its config keys as flags."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, stage=stage)
        for key in _flag_keys(stage) if stage else ():
            p.add_argument("--" + key.replace("_", "-"), type=PARAMS[key].type,
                           default=PARAMS[key].default, help="default: %(default)r")
        if out:
            p.add_argument("--out", required=True, help=out)
        return p

    p = command("phantom", "generate a synthetic phantom with ground truth", _cmd_phantom)
    p.add_argument("--spec", default="", help="phantom spec file (key=value)")

    p = command("flatfield-estimate", "estimate a shading field from tiles", _cmd_flatfield)
    p.add_argument("--in", dest="tiles", required=True)
    p.add_argument("--channel", default="CG", choices=imgcore.CHANNELS)
    p.add_argument("--lower", type=float, default=PARAMS["ff_lower"].default)
    p.add_argument("--upper", type=float, default=PARAMS["ff_upper"].default)

    for stage in STAGE_TABLE:
        command(stage.name, f"run the {stage.name} stage in a run directory", stage=stage,
                out="run directory")

    for task in ("cells", "tracer"):
        p = command(f"train-{task}", f"train the {task} network", _cmd_train)
        p.set_defaults(task=task)
        p.add_argument("--stack", required=True, help="C_B stack (cells) or C_G stack (tracer)")
        p.add_argument("--second", default="", help="C_R stack (tracer only)")
        p.add_argument("--labels", required=True)
        p.add_argument("--depth", type=int, default=2)
        p.add_argument("--base", type=int, default=8)
        p.add_argument("--tile", type=int, default=0)
        p.add_argument("--dense", type=int, default=10)
        p.add_argument("--sparse", type=int, default=10)
        p.add_argument("--steps", type=int, default=2000)
        p.add_argument("--lr", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)

    p = command("predict", "run sliding-window inference", _cmd_predict)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="stack", required=True,
                   help="C_B stack (cell models) or C_G stack (tracer models)")
    p.add_argument("--second", default="", help="C_R stack (tracer models)")

    p = command("eval", "compare run outputs against phantom truth", _cmd_eval, out=None)
    p.add_argument("--run", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--radius", type=float, default=4.0)

    p = command("run", "run the full pipeline from a config file", _cmd_run, out=None)
    p.add_argument("--config", required=True)

    return parser


def _dispatch(args) -> int:
    """Run a subcommand's handler or, for a stage subcommand, its stage in ``--out`` as
    ``run`` runs it (key, skip, ``stages.json`` record), printing the stage's report line."""
    if args.stage is None:
        return args.handler(args)
    cfg = checked_config({key: getattr(args, key) for key in (*_flag_keys(args.stage), "out")})
    _check_needs(args.stage.name, [args.stage], cfg)
    report = RunReport()
    _run_stage(args.stage, cfg, report)
    print(report.text(), end="")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # a ConfigError is a validation error, any other a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())

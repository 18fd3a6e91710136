"""Model serialization: text manifest + little-endian f32 blob.

``<prefix>.manifest`` lists the architecture line followed by one line per
parameter (name and shape) in blob order; ``<prefix>.bin`` concatenates the
arrays as little-endian float32 in exactly that order.  ``load_model`` keeps
that precision: it returns native float32 parameters, so inference with a
loaded model runs in float32.  ``train`` converts them to float64.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..imgcore import FormatError, cast_record, parse_records, prefix_paths
from .unet import UNetParams, param_shapes


def save_model(net: UNetParams, prefix) -> Path:
    manifest, blob = prefix_paths(prefix, "model")
    lines = [
        "format=marmopipe-unet-1",
        f"depth={net.depth}",
        f"base_features={net.base_features}",
        f"in_channels={net.in_channels}",
        f"input_scale={net.input_scale!r}",
        f"seed={net.seed}",
    ]
    chunks = []
    for name in sorted(net.params):
        arr = net.params[name]
        lines.append(f"param:{name}={' '.join(str(s) for s in arr.shape)}")
        chunks.append(arr.astype("<f4").tobytes())
    manifest.write_text("\n".join(lines) + "\n")
    blob.write_bytes(b"".join(chunks))
    return manifest


def _shape(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split())


def load_model(prefix) -> UNetParams:
    """Read a saved model; a manifest or blob that does not match its format is a
    FormatError that names the manifest."""
    manifest, blob = prefix_paths(prefix, "model")
    head = {"use_batchnorm": "0", **parse_records(manifest.read_text(), manifest)}
    # a batch-norm model run without its normalization would give
    # silently wrong saliency maps; dropout needs nothing at inference
    if any(key.startswith("stat:") for key in head):
        raise FormatError(f"{manifest}: batch-norm statistics are not supported")
    entries = [(key[len("param:"):], cast_record(head, key, _shape, manifest))
               for key in head if key.startswith("param:")]
    if head.get("format") != "marmopipe-unet-1":
        raise FormatError(f"unknown model format in {manifest}")
    if cast_record(head, "use_batchnorm", int, manifest):
        raise FormatError(f"{manifest}: batch normalization is not supported")

    depth, base, in_channels = (cast_record(head, key, int, manifest)
                                for key in ("depth", "base_features", "in_channels"))
    want = param_shapes(depth, base, in_channels)
    arch = f"depth={depth} base_features={base} in_channels={in_channels}"
    for name, shape in entries:
        if name not in want:
            raise FormatError(f"{manifest}: parameter {name} is not part of {arch}")
        if shape != want[name]:
            raise FormatError(f"{manifest}: {name} has shape {shape}, {arch} needs {want[name]}")
    missing = sorted(set(want) - {name for name, _ in entries})
    if missing:
        raise FormatError(f"{manifest}: {arch} needs parameter {missing[0]}, which is not listed")

    raw = blob.read_bytes()
    expect = 4 * sum(int(np.prod(shape)) for _, shape in entries)
    if expect != len(raw):
        raise FormatError(f"{manifest}: model blob {blob} has {len(raw)} bytes, manifest expects {expect}")
    params = {}
    offset = 0
    for name, shape in entries:
        n = int(np.prod(shape))
        params[name] = np.frombuffer(raw, dtype="<f4", count=n, offset=offset).reshape(shape).astype(np.float32)
        offset += n * 4
    return UNetParams(
        depth=depth,
        base_features=base,
        in_channels=in_channels,
        params=params,
        input_scale=cast_record(head, "input_scale", float, manifest),
        seed=cast_record(head, "seed", int, manifest),
    )

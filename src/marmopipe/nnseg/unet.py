"""U-Net with valid convolutions: parameters, geometry, forward/backward.

The architecture family: ``depth`` resolution levels, two unpadded 3x3
conv+ReLU pairs per level, 2x2 max pooling between encoder levels, 2x2
stride-2 up-convolutions with center-cropped skip concatenation on the way
up, and a 1x1 convolution + sigmoid head.  Feature counts double per level
from ``base_features``.  At the reference scale (depth 4, base 64) a
572x572 input yields a 484x484 output; the desk scale used throughout the
tests is depth 2, base 8 (108 -> 92).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import layers as L


def margin(depth: int) -> int:
    """Total extent lost between input and output (both axes)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    m = 4  # bottom level: two 3x3 convs
    for _ in range(depth - 1):
        m = 8 + 2 * m
    return m


def output_extent(depth: int, n: int) -> int:
    """Output size for input size ``n``; raises if ``n`` is not admissible."""
    size = n
    for level in range(depth - 1):
        size -= 4
        if size < 2 or size % 2:
            raise ValueError(f"input {n} invalid at level {level}: {size} before pooling")
        size //= 2
    size -= 4
    if size < 1:
        raise ValueError(f"input {n} too small for depth {depth}")
    for _ in range(depth - 1):
        size = 2 * size - 4
    return size


def valid_input(depth: int, n: int) -> bool:
    try:
        output_extent(depth, n)
        return True
    except ValueError:
        return False


def next_valid_input(depth: int, n: int) -> int:
    k = max(n, margin(depth) + 1)
    while not valid_input(depth, k):
        k += 1
    return k


@dataclass
class UNetParams:
    """Trainable state plus the few architecture knobs that shape it.

    ``params`` maps parameter names to arrays of one dtype: float64 from
    ``init_unet`` and ``train``, float32 from ``load_model``.  The forward
    pass computes in that dtype.  ``input_scale`` is applied to raw
    intensities at the network entry so models remember their own
    normalization.
    """

    depth: int
    base_features: int
    in_channels: int
    params: dict = dc_field(default_factory=dict)
    input_scale: float = 1.0
    seed: int = 0

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which inference computes in."""
        return self.params["out_w"].dtype

    def astype(self, dtype) -> "UNetParams":
        """A copy with every parameter converted to ``dtype`` (always new arrays)."""
        return UNetParams(
            depth=self.depth,
            base_features=self.base_features,
            in_channels=self.in_channels,
            params={k: v.astype(dtype) for k, v in self.params.items()},
            input_scale=self.input_scale,
            seed=self.seed,
        )

    @property
    def margin(self) -> int:
        return margin(self.depth)

    def feature_count(self, level: int) -> int:
        return self.base_features * (1 << level)


def _conv_specs(depth: int, base: int, in_channels: int):
    """Yield (name, kind, shape...) for every parameter, in blob order."""
    feats = [base * (1 << d) for d in range(depth)]
    specs = []
    prev = in_channels
    for d in range(depth):
        specs.append((f"enc{d}_conv1", "conv3", prev, feats[d]))
        specs.append((f"enc{d}_conv2", "conv3", feats[d], feats[d]))
        prev = feats[d]
    for d in range(depth - 2, -1, -1):
        specs.append((f"dec{d}_up", "upconv", feats[d + 1], feats[d]))
        specs.append((f"dec{d}_conv1", "conv3", 2 * feats[d], feats[d]))
        specs.append((f"dec{d}_conv2", "conv3", feats[d], feats[d]))
    specs.append(("out", "conv1", feats[0], 1))
    return specs


_FAN = {"conv3": 9, "upconv": 4, "conv1": 1}


def _weight_shape(kind: str, cin: int, cout: int) -> tuple:
    if kind == "conv3":
        return (cout, cin, 3, 3)
    if kind == "upconv":
        return (cin, cout, 2, 2)
    return (cout, cin)


def param_shapes(depth: int, base: int, in_channels: int) -> dict:
    """Name -> shape of every parameter of the architecture."""
    shapes = {}
    for name, kind, cin, cout in _conv_specs(depth, base, in_channels):
        shapes[f"{name}_w"] = _weight_shape(kind, cin, cout)
        shapes[f"{name}_b"] = (cout,)
    return shapes


def init_unet(
    depth: int,
    base_features: int,
    in_channels: int,
    seed: int = 0,
    input_scale: float = 1.0,
) -> UNetParams:
    """He-initialized parameters; fully determined by the seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, kind, cin, cout in _conv_specs(depth, base_features, in_channels):
        std = np.sqrt(2.0 / (cin * _FAN[kind]))
        params[f"{name}_w"] = rng.normal(0.0, std, _weight_shape(kind, cin, cout))
        params[f"{name}_b"] = np.zeros(cout)
    return UNetParams(
        depth=depth,
        base_features=base_features,
        in_channels=in_channels,
        params=params,
        input_scale=input_scale,
        seed=seed,
    )


class UNet:
    """Stateful forward/backward evaluator around a UNetParams bundle."""

    def __init__(self, net: UNetParams):
        self.net = net
        self._cache = None

    # -- forward -----------------------------------------------------------

    def _conv_block(self, name, x, cache):
        p = self.net.params
        for conv in (f"{name}_conv1", f"{name}_conv2"):
            z = L.conv3x3_forward(x, p[f"{conv}_w"], p[f"{conv}_b"])
            cache[f"{conv}_in"] = x
            cache[f"{conv}_z"] = z
            x = L.relu_forward(z)
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network; returns the sigmoid saliency map (1, ho, wo)."""
        net = self.net
        x = np.asarray(x, dtype=net.dtype)
        if x.ndim == 2:
            x = x[None]
        if x.shape[0] != net.in_channels:
            raise ValueError(f"expected {net.in_channels} input channels, got {x.shape[0]}")
        for n in x.shape[1:]:
            output_extent(net.depth, n)  # raises on inadmissible extents
        if net.input_scale != 1.0:
            x = x * net.input_scale

        cache = {}
        skips = []
        for d in range(net.depth):
            if d > 0:
                cache[f"pool{d}_in_shape"] = x.shape
                x, arg = L.maxpool2_forward(x)
                cache[f"pool{d}_arg"] = arg
            x = self._conv_block(f"enc{d}", x, cache)
            if d < net.depth - 1:
                skips.append(x)
        for d in range(net.depth - 2, -1, -1):
            cache[f"dec{d}_up_in"] = x
            x = L.upconv2_forward(x, net.params[f"dec{d}_up_w"], net.params[f"dec{d}_up_b"])
            skip = skips[d]
            cropped = L.center_crop(skip, x.shape[1], x.shape[2])
            cache[f"dec{d}_skip_shape"] = skip.shape
            x = np.concatenate([cropped, x], axis=0)
            x = self._conv_block(f"dec{d}", x, cache)
        logits = L.conv1x1_forward(x, net.params["out_w"], net.params["out_b"])
        cache["out_in"] = x
        cache["logits"] = logits
        self._cache = cache
        return L.sigmoid(logits)

    # -- backward ----------------------------------------------------------

    def _conv_block_backward(self, name, dy, grads):
        cache, p = self._cache, self.net.params
        for conv in (f"{name}_conv2", f"{name}_conv1"):
            dz = L.relu_backward(cache[f"{conv}_z"], dy)
            dy, dw, db = L.conv3x3_backward(cache[f"{conv}_in"], p[f"{conv}_w"], dz)
            grads[f"{conv}_w"] = dw
            grads[f"{conv}_b"] = db
        return dy

    def backward(self, dlogits: np.ndarray) -> dict:
        """Parameter gradients given the loss gradient wrt the logits."""
        if self._cache is None:
            raise RuntimeError("backward called without a preceding forward pass")
        cache, net = self._cache, self.net
        grads = {}
        dy, dw, db = L.conv1x1_backward(cache["out_in"], net.params["out_w"], dlogits)
        grads["out_w"] = dw
        grads["out_b"] = db
        for d in range(net.depth - 1):
            dy = self._conv_block_backward(f"dec{d}", dy, grads)
            c_skip = net.feature_count(d)
            dskip_c, dup = dy[:c_skip], dy[c_skip:]
            sk_c, sk_h, sk_w = cache[f"dec{d}_skip_shape"]
            oh, ow = dskip_c.shape[1], dskip_c.shape[2]
            dskip = np.zeros((sk_c, sk_h, sk_w), dtype=np.float64)
            y0, x0 = (sk_h - oh) // 2, (sk_w - ow) // 2
            dskip[:, y0:y0 + oh, x0:x0 + ow] = dskip_c
            dx, dw, db = L.upconv2_backward(
                cache[f"dec{d}_up_in"], net.params[f"dec{d}_up_w"], dup
            )
            grads[f"dec{d}_up_w"] = dw
            grads[f"dec{d}_up_b"] = db
            cache[f"dec{d}_dskip"] = dskip
            dy = dx
        for d in range(net.depth - 1, -1, -1):
            dy = self._conv_block_backward(f"enc{d}", dy, grads)
            if d > 0:
                dy = L.maxpool2_backward(
                    cache[f"pool{d}_arg"], dy, cache[f"pool{d}_in_shape"]
                )
                dy = dy + cache[f"dec{d - 1}_dskip"]
        return grads

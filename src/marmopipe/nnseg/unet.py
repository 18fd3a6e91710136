"""U-Net with valid convolutions: parameters, geometry, forward/backward.

The architecture family: ``depth`` resolution levels, two unpadded 3x3
conv+ReLU pairs per level, 2x2 max pooling between encoder levels, 2x2
stride-2 up-convolutions with center-cropped skip concatenation on the way
up, and a 1x1 convolution + sigmoid head.  Feature counts double per level
from ``base_features``.  At the reference scale (depth 4, base 64) a
572x572 input yields a 484x484 output; the desk scale used throughout the
tests is depth 2, base 8 (108 -> 92).

The graph is spelled once, in ``UNet._walk``.  ``forward`` (training) passes it
steps that record what ``backward`` needs; ``predict`` (inference) passes steps
that record nothing, so a window holds only the live activations and skips.
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
    """Stateful forward/backward evaluator around a UNetParams bundle; ``predict`` is
    the inference pass, which keeps no state.  Both run the one walk of the graph."""

    def __init__(self, net: UNetParams):
        self.net = net
        self._cache = None

    # -- forward -----------------------------------------------------------

    def _entry(self, x: np.ndarray) -> np.ndarray:
        """The input as (channels, h, w) in the parameters' dtype, checked and scaled."""
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
        return x

    def _walk(self, x: np.ndarray, conv, pool, keep) -> np.ndarray:
        """The logits of the checked input ``x``.  The caller's steps each take a layer
        name and its input: ``conv`` is a 3x3 conv with its ReLU (``enc{d}_conv1``...),
        ``pool`` the max pooling into level ``d`` (``pool{d}``), and ``keep`` sees the
        inputs of the up-convolutions (``dec{d}_up``) and of the 1x1 head (``out``).
        Each skip is dropped once it is concatenated."""
        depth, p = self.net.depth, self.net.params
        skips = []
        for d in range(depth):
            if d > 0:
                x = pool(f"pool{d}", x)
            x = conv(f"enc{d}_conv2", conv(f"enc{d}_conv1", x))
            if d < depth - 1:
                skips.append(x)
        for d in range(depth - 2, -1, -1):
            keep(f"dec{d}_up", x)
            x = L.upconv2_forward(x, p[f"dec{d}_up_w"], p[f"dec{d}_up_b"])
            x = np.concatenate([L.center_crop(skips.pop(), x.shape[1], x.shape[2]), x], axis=0)
            x = conv(f"dec{d}_conv2", conv(f"dec{d}_conv1", x))
        keep("out", x)
        return L.conv1x1_forward(x, p["out_w"], p["out_b"])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network; returns the sigmoid saliency map (1, ho, wo).  Records
        what ``backward`` needs: each layer's input as ``{name}_in``, each conv's
        pre-activation as ``{name}_z`` and each pooling window's pick."""
        p = self.net.params
        cache = {}

        def conv(name, x):
            cache[f"{name}_in"] = x
            z = cache[f"{name}_z"] = L.conv3x3_forward(x, p[f"{name}_w"], p[f"{name}_b"])
            return L.relu_forward(z)

        def pool(name, x):
            c, h, w = x.shape
            pick = cache[f"{name}_pick"] = np.empty((c, h // 2, w // 2), dtype=np.uint8)
            return L.maxpool2_forward(x, pick)

        def keep(name, x):
            cache[f"{name}_in"] = x

        logits = self._walk(self._entry(x), conv, pool, keep)
        self._cache = cache
        return L.sigmoid(logits)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``forward``'s saliency map, bit for bit, for inference: nothing is recorded
        for ``backward``, and each conv applies its bias and ReLU in place."""
        p = self.net.params
        logits = self._walk(
            self._entry(x),
            conv=lambda name, x: L.conv3x3_relu_forward(x, p[f"{name}_w"], p[f"{name}_b"]),
            pool=lambda name, x: L.maxpool2_forward(x),
            keep=lambda name, x: None,
        )
        return L.sigmoid(logits)

    # -- backward ----------------------------------------------------------

    def _conv_block_backward(self, name, dy, grads):
        cache, p = self._cache, self.net.params
        for conv in (f"{name}_conv2", f"{name}_conv1"):
            dz = L.relu_backward(cache[f"{conv}_z"], dy)
            dy, grads[f"{conv}_w"], grads[f"{conv}_b"] = L.conv3x3_backward(
                cache[f"{conv}_in"], p[f"{conv}_w"], dz)
        return dy

    def backward(self, dlogits: np.ndarray) -> dict:
        """Parameter gradients given the loss gradient wrt the logits."""
        if self._cache is None:
            raise RuntimeError("backward called without a preceding forward pass")
        cache, net, p = self._cache, self.net, self.net.params
        grads, dskips = {}, []
        dy, grads["out_w"], grads["out_b"] = L.conv1x1_backward(cache["out_in"], p["out_w"], dlogits)
        for d in range(net.depth - 1):
            dy = self._conv_block_backward(f"dec{d}", dy, grads)
            c_skip = net.feature_count(d)
            dskips.append(np.zeros(cache[f"enc{d}_conv2_z"].shape))
            L.center_crop(dskips[d], dy.shape[1], dy.shape[2])[...] = dy[:c_skip]
            dy, grads[f"dec{d}_up_w"], grads[f"dec{d}_up_b"] = L.upconv2_backward(
                cache[f"dec{d}_up_in"], p[f"dec{d}_up_w"], dy[c_skip:])
        for d in range(net.depth - 1, -1, -1):
            dy = self._conv_block_backward(f"enc{d}", dy, grads)
            if d > 0:
                dy = L.maxpool2_backward(cache[f"pool{d}_pick"], dy) + dskips[d - 1]
        return grads

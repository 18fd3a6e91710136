"""Whole-slice inference by tiling the valid output region.

The slice is mirror-padded once by half the network margin; every window's
input is a view into that padded array, so window outputs equal the
corresponding region of a whole-image pass (the network is fully
convolutional) up to the last bit: BLAS may sum a matrix product of another
extent in another order (1e-16 in float64, one float32 step in float32).
Window output regions abut exactly; ragged edges are handled by shifting the
last window inward and overwriting equal values.  The slice is cast to the
parameters' dtype before it is padded, so a loaded model predicts in float32.
"""

from __future__ import annotations

import numpy as np

from ..imgcore import SaliencyMap
from .unet import UNet, UNetParams, next_valid_input, valid_input


def _chunk(total: int, nominal_out: int, depth: int, m: int) -> list[tuple[int, int]]:
    """Output-row windows (start, size) covering [0, total).

    The network is shift-equivariant only modulo the pooling lattice
    (period 2^(depth-1)), so window starts are kept on that lattice; where
    windows overlap they overwrite bitwise-identical values.
    """
    period = 1 << (depth - 1)
    size = nominal_out
    while size > 1 and not valid_input(depth, size + m):
        size -= 1
    if not valid_input(depth, size + m):
        size = next_valid_input(depth, m + 1) - m
    if size >= total:
        return [(0, size)]
    step = max(period, (size // period) * period)
    starts = list(range(0, total - size + 1, step))
    if starts[-1] + size < total:
        starts.append(-(-(total - size) // period) * period)
    return [(s, size) for s in starts]


def sliding_window_predict(net: UNetParams, image: np.ndarray, nominal_out: int = 92) -> SaliencyMap:
    """Saliency for a whole slice, congruent with the input extent.

    ``image`` is (channels, height, width) or a bare 2D slice.  Slices
    smaller than one window are handled by extra mirror padding; the
    returned map is always height x width.
    """
    image = np.asarray(image, dtype=net.dtype)
    if image.ndim == 2:
        image = image[None]
    c, h, w = image.shape
    m = net.margin
    rows = _chunk(h, nominal_out, net.depth, m)
    cols = _chunk(w, nominal_out, net.depth, m)

    # mirror-pad: m/2 context on every side plus whatever the last window
    # needs when the slice is smaller than one window
    pad_y = m // 2 + max(0, rows[-1][0] + rows[-1][1] - h)
    pad_x = m // 2 + max(0, cols[-1][0] + cols[-1][1] - w)
    padded = np.pad(image, [(0, 0), (m // 2, pad_y), (m // 2, pad_x)], mode="reflect")

    model = UNet(net)
    out = np.zeros((h, w), dtype=np.float64)
    for y0, oy in rows:
        for x0, ox in cols:
            window = padded[:, y0:y0 + oy + m, x0:x0 + ox + m]
            pred = model.forward(window)[0]
            ny = min(oy, h - y0)
            nx = min(ox, w - x0)
            out[y0:y0 + ny, x0:x0 + nx] = pred[:ny, :nx]
    return SaliencyMap(values=out)


def predict_whole(net: UNetParams, image: np.ndarray) -> SaliencyMap:
    """Single-pass inference (pads to the next admissible extent, crops back)."""
    image = np.asarray(image, dtype=net.dtype)
    if image.ndim == 2:
        image = image[None]
    c, h, w = image.shape
    m = net.margin
    ny = next_valid_input(net.depth, h + m)
    nx = next_valid_input(net.depth, w + m)
    padded = np.pad(image, [(0, 0), (m // 2, ny - h - m // 2), (m // 2, nx - w - m // 2)],
                    mode="reflect")
    pred = UNet(net).forward(padded)[0]
    return SaliencyMap(values=pred[:h, :w])

"""Primitive layer math for the segmentation network.

All activations are single-sample arrays shaped (channels, height, width) in
the dtype of their input: float32 for inference with a loaded model, float64
for training.  Convolutions are unpadded ("valid"); gradients are exact, which
is what the finite-difference checks in the test suite verify.

Each 3x3 and 2x2 kernel, forward and backward, is one BLAS matrix product on
channel-first columns.  A 3x3 layer stacks the 9 shifted views of its
(C, H, W) input as (C, 3, 3, Ho, Wo), read as the (C*9, Ho*Wo) column matrix
(im2col); ``dx`` scatter-adds the columns' gradient back through the same
views (col2im).  A 2x2 stride-2 up-convolution is (F*4, C) @ (C, H*W).

Max pooling is one kernel for training and inference over the four stride-2
views; it records each window's winning view only when given an array for it,
as training is, whose backward routes the gradient by it.
"""

from __future__ import annotations

import numpy as np


def _cols3(x: np.ndarray) -> np.ndarray:
    """(C, H, W) -> (C, 3, 3, H-2, W-2): the 9 shifted views, channel first."""
    c, h, w = x.shape
    ho, wo = h - 2, w - 2
    cols = np.empty((c, 3, 3, ho, wo), dtype=x.dtype)
    for u in range(3):
        for v in range(3):
            cols[:, u, v] = x[:, u:u + ho, v:v + wo]
    return cols


def conv3x3_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 3x3 convolution; weight (F, C, 3, 3), bias (F,)."""
    f, c = weight.shape[0], weight.shape[1]
    ho, wo = x.shape[1] - 2, x.shape[2] - 2
    y = weight.reshape(f, c * 9) @ _cols3(x).reshape(c * 9, ho * wo)
    y += bias[:, None]
    return y.reshape(f, ho, wo)


def conv3x3_relu_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``relu_forward(conv3x3_forward(x, weight, bias))``, bit for bit, with the ReLU
    applied in place; for inference, which keeps no pre-activation."""
    y = conv3x3_forward(x, weight, bias)
    return np.maximum(y, 0, out=y)


def conv3x3_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray):
    """Gradients of a valid 3x3 convolution: returns (dx, dweight, dbias)."""
    f, c = weight.shape[0], weight.shape[1]
    ho, wo = dy.shape[1], dy.shape[2]
    dyf = dy.reshape(f, ho * wo)
    dweight = (dyf @ _cols3(x).reshape(c * 9, ho * wo).T).reshape(f, c, 3, 3)
    dbias = dy.sum(axis=(1, 2))
    dcols = (weight.reshape(f, c * 9).T @ dyf).reshape(c, 3, 3, ho, wo)
    dx = np.zeros((c, ho + 2, wo + 2), dtype=dcols.dtype)
    for u in range(3):
        for v in range(3):
            dx[:, u:u + ho, v:v + wo] += dcols[:, u, v]
    return dx, dweight, dbias


def conv1x1_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1x1 convolution; weight (F, C), bias (F,)."""
    return np.tensordot(weight, x, axes=([1], [0])) + bias[:, None, None]


def conv1x1_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray):
    dweight = np.tensordot(dy, x, axes=([1, 2], [1, 2]))
    dbias = dy.sum(axis=(1, 2))
    dx = np.tensordot(weight.T, dy, axes=([1], [0]))
    return dx, dweight, dbias


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * (x > 0)


def _windows(a: np.ndarray) -> tuple:
    """The four stride-2 views of ``a`` in window order: top left, top right, bottom
    left, bottom right."""
    return a[:, 0::2, 0::2], a[:, 0::2, 1::2], a[:, 1::2, 0::2], a[:, 1::2, 1::2]


def maxpool2_forward(x: np.ndarray, pick: np.ndarray | None = None) -> np.ndarray:
    """2x2 max pooling (even extents); writes each window's pick into ``pick`` if given.

    The four views are taken in window order, and a later view replaces the held value
    only where it is strictly greater, or NaN where the held value is not: ties (+0 and
    -0 included) keep the first value and the first NaN wins, as ``argmax`` picks them.
    ``np.maximum`` would not: it may return -0 for a +0 first.  ``pick``, shaped like
    the output, receives the index of the winning view, which ``maxpool2_backward``
    routes the gradient by.
    """
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"pooling needs even extents, got {h}x{w}")
    first, *rest = _windows(x)
    y = first.copy()
    if pick is not None:
        pick[...] = 0
    for k, view in enumerate(rest, 1):
        wins = ~(view <= y) & (y == y)
        np.copyto(y, view, where=wins)
        if pick is not None:
            np.copyto(pick, k, where=wins)
    return y


def maxpool2_backward(pick: np.ndarray, dy: np.ndarray) -> np.ndarray:
    c, h, w = pick.shape
    dx = np.zeros((c, 2 * h, 2 * w), dtype=dy.dtype)
    for k, view in enumerate(_windows(dx)):
        np.copyto(view, dy, where=pick == k)
    return dx


def upconv2_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """2x2 transposed convolution, stride 2; weight (C, F, 2, 2), bias (F,)."""
    c, f = weight.shape[0], weight.shape[1]
    h, w = x.shape[1], x.shape[2]
    t = weight.reshape(c, f * 4).T @ x.reshape(c, h * w)  # (F*4, H*W)
    y = t.reshape(f, 2, 2, h, w).transpose(0, 3, 1, 4, 2).reshape(f, 2 * h, 2 * w)
    return y + bias[:, None, None]


def upconv2_backward(x: np.ndarray, weight: np.ndarray, dy: np.ndarray):
    c, f = weight.shape[0], weight.shape[1]
    h, w = x.shape[1], x.shape[2]
    # (F, 2H, 2W) -> (F, 2, 2, H, W) -> the (F*4, H*W) view the forward wrote
    dyf = dy.reshape(f, h, 2, w, 2).transpose(0, 2, 4, 1, 3).reshape(f * 4, h * w)
    dweight = (x.reshape(c, h * w) @ dyf.T).reshape(c, f, 2, 2)
    dbias = dy.sum(axis=(1, 2))
    dx = (weight.reshape(c, f * 4) @ dyf).reshape(c, h, w)
    return dx, dweight, dbias


def center_crop(x: np.ndarray, height: int, width: int) -> np.ndarray:
    dh = x.shape[1] - height
    dw = x.shape[2] - width
    if dh < 0 or dw < 0:
        raise ValueError(f"cannot crop {x.shape} to {height}x{width}")
    return x[:, dh // 2:dh // 2 + height, dw // 2:dw // 2 + width]


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out

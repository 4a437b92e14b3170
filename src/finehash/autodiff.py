"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array and a
:class:`Tape` records one entry per differentiable operation in execution
order.  Because entries are appended as they are created, the record list is
already a topological order of the computation, and ``backward`` simply
pops it in reverse, visiting and then dropping every entry exactly once.  A
tape is built fresh for every forward pass and serves one ``backward``;
there is no graph reuse between passes.  A record keeps its inputs, its
output and the arrays its gradient functions read, and no more: :func:`conv2d`
rebuilds its padded input from x in backward, and a relu after a conv is fused
into it (``conv2d(..., relu=True)`` and :func:`gated_conv2d`), so the tape
holds no pre-activation.

Numeric conventions shared by the whole package live here as well: every
op computes in the dtype of its inputs (the network runs in float32, a
float64 graph stays float64), ``sign(0)`` is ``+1``, and every value an op
computes is checked to be finite (NaN or Inf anywhere is an error state, not
a value).  :func:`tensor` checks its input; :func:`reshape` and
:func:`concat` only rearrange entries an op or :func:`tensor` already
checked, so they skip the check, and a NaN or Inf still raises at the
first op that computes it.

Every op accepts leading axes and works on the trailing ones only: maps are
``[..., H, W, C]`` and vectors ``[..., N]``, so one call covers a whole
batch (of images, of parts, of pairs).  :func:`sub` and :func:`hadamard`
broadcast like numpy, aligning shapes at their trailing axes, and
:func:`matmul` broadcasts its leading axes like ``np.matmul``; the gradient
of a broadcast operand is summed over the axes it was broadcast along.
Everything else requires exact shape agreement.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError, NumericError

_GradFn = Callable[[np.ndarray], np.ndarray]

# rows per block of conv2d's forward product, and of gated_conv2d's output
# both ways: bounds the im2col columns a block copies (4.7 MB for the default
# model's widest conv in float32) and keeps each product small enough that a
# map's result does not depend on the maps stacked with it (see conv2d)
_CONV_BLOCK_ROWS = 4096


class _TapeStack(threading.local):  # this thread's recording tapes, innermost last
    def __init__(self):
        self.tapes: list[Tape] = []


_local = _TapeStack()


def active_tape() -> "Tape | None":
    """Innermost tape currently recording on this thread, if any."""
    return _local.tapes[-1] if _local.tapes else None


def sign_pm1(values: np.ndarray | float) -> np.ndarray:
    """Sign with the package-wide convention sign(0) := +1."""
    return np.where(np.greater_equal(values, 0.0), 1.0, -1.0)


def _require_finite(values: np.ndarray, op: str) -> None:
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise NumericError(f"{op}: result contains NaN or Inf")


class Tensor:
    """A dense float32 or float64 array with an optional gradient buffer.

    Attributes:
        data: the value; float32 and float64 input is kept as given, any
            other input becomes float64.
        grad: gradient buffer of the same shape, populated by backward().
        requires_grad: whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item: tensor of shape {self.shape} is not scalar")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    """Wrap values as a constant (or leaf) tensor, checking finiteness."""
    out = Tensor(values, requires_grad=requires_grad)
    _require_finite(out.data, "tensor")
    return out


def parameter(values) -> Tensor:
    """Wrap values as a trainable leaf tensor."""
    return tensor(values, requires_grad=True)


class Tape:
    """Execution-ordered record of differentiable operations.

    Used as a context manager around a forward pass; operations executed
    while the tape is active are recorded when any input requires a
    gradient.  Operations executed with no active tape are plain numpy
    evaluations, which is the fast path for inference: nothing is recorded
    and no array outlives the op, but each op still checks its inputs'
    shapes, checks its result for NaN and Inf, wraps it in a Tensor and
    builds the gradient closures a tape would record.  On a one-image
    encode those fixed costs, and numpy's own per-call cost, are a large
    share of the time.  A tape serves one :meth:`backward` call, which
    consumes it.
    """

    def __init__(self):
        # (output, [(input, gradient function), ...]) in execution order
        self._records: list[tuple[Tensor, list[tuple[Tensor, _GradFn]]]] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        _local.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.tapes.pop()
        return False

    def _add(self, out: Tensor, inputs: list[tuple[Tensor, _GradFn]]) -> None:
        out.requires_grad = True
        self._records.append((out, inputs))

    def backward(self, loss: Tensor) -> None:
        """Set .grad to d(loss)/d(leaf) on every leaf, consuming the tape.

        A leaf is a tensor recorded as an op input and produced by no op on
        this tape, such as a parameter.  The seed must be a scalar; it keeps
        its gradient of ones.  Records are popped in reverse execution order,
        and each one is dropped, with the arrays its gradient functions saved
        and its output's .grad, as soon as those functions have run, so only
        leaves (and the seed) keep a gradient and the tape ends empty.
        Leaves off every path to the loss get an all-zero gradient.  A first
        contribution becomes the buffer as is (it may be another tensor's),
        so later ones are added out of place.  A consumed tape cannot run
        backward again.
        """
        if loss.data.size != 1:
            raise DimensionError(f"backward: seed must be scalar, got shape {loss.shape}")
        if self._consumed:
            raise ContractError("backward: this tape was already consumed by backward")
        self._consumed = True
        records = self._records
        produced = {id(out) for out, _ in records}
        leaves = {id(t): t for _, inputs in records for t, _ in inputs if id(t) not in produced}
        for tens in (*leaves.values(), *(out for out, _ in records)):
            tens.grad = None
        loss.grad = np.ones_like(loss.data)
        while records:
            out, inputs = records.pop()
            if out.grad is not None:  # else it is off every path to the loss
                for tens, grad_fn in inputs:
                    tens.grad = (grad_fn(out.grad) if tens.grad is None
                                 else tens.grad + grad_fn(out.grad))
                if out is not loss:
                    out.grad = None
        for tens in leaves.values():
            if tens.grad is None:
                tens.grad = np.zeros_like(tens.data)


def _result(op: str, data: np.ndarray, inputs: Sequence[tuple[Tensor, _GradFn]]) -> Tensor:
    """Check the values an op computed, then record it like :func:`_rearranged`."""
    _require_finite(data, op)
    return _rearranged(data, inputs)


def _rectified(op: str, data: np.ndarray, inputs: Sequence[tuple[Tensor, _GradFn]]) -> Tensor:
    """Check the pre-activation an op computed, apply relu to it in place, and
    record the op with the relu folded in: one tape entry whose gradient
    functions all get ``g * (out > 0)``, formed once per ``g``.  Bit for bit
    :func:`relu` of what :func:`_result` records, without keeping the
    pre-activation; -inf still raises, naming ``op``."""
    _require_finite(data, op)
    np.maximum(data, 0.0, out=data)
    memo: list = []  # [g, g * (data > 0)]

    def masked(g: np.ndarray) -> np.ndarray:
        if not (memo and memo[0] is g):
            memo[:] = [g, g * (data > 0.0)]
        return memo[1]

    return _rearranged(data, [(tens, lambda g, fn=fn: fn(masked(g))) for tens, fn in inputs])


def _rearranged(data: np.ndarray, inputs: Sequence[tuple[Tensor, _GradFn]]) -> Tensor:
    """Wrap an op's output and record it on the active tape; no finiteness check."""
    out = Tensor(data)
    tape = active_tape()
    if tape is not None:
        tracked = [(tens, fn) for tens, fn in inputs if tens.requires_grad]
        if tracked:
            tape._add(out, tracked)
    return out


def _broadcast(op: str, ufunc: np.ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """``ufunc`` of the two tensors' values, broadcast like numpy."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _view(base: np.ndarray, shape: tuple[int, ...], strides: tuple[int, ...]) -> np.ndarray:
    """A strided view of the C-contiguous array ``base``: ``as_strided``
    without its wrapper's cost.  numpy rejects a view that reaches past the
    end of ``base``."""
    return np.ndarray(shape, base.dtype, base, 0, strides)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes along which an operand of ``shape`` was broadcast."""
    extra = grad.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(extra + i for i, n in enumerate(shape) if n == 1)
    return grad.sum(axis=axes).reshape(shape) if axes else grad


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two equally shaped tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    return _result("add", a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference; the shapes broadcast at their trailing axes."""
    return _result(
        "sub",
        _broadcast("sub", np.subtract, a, b),
        [(a, lambda g: _unbroadcast(g, a.shape)), (b, lambda g: -_unbroadcast(g, b.shape))],
    )


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply every entry by a python scalar."""
    factor = float(factor)
    return _result("scale", a.data * factor, [(a, lambda g: g * factor)])


def add_scalar(a: Tensor, shift: float) -> Tensor:
    """Add a python scalar to every entry."""
    shift = float(shift)
    return _result("add_scalar", a.data + shift, [(a, lambda g: g)])


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; the shapes broadcast at their trailing axes.

    For example a map [..., H, W, 1] times a tensor [..., H, W, C] scales
    every channel fiber by the map.
    """
    return _result(
        "hadamard",
        _broadcast("hadamard", np.multiply, a, b),
        [
            (a, lambda g: _unbroadcast(g * b.data, a.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.shape)),
        ],
    )


def relu(a: Tensor) -> Tensor:
    """max(0, x); the subgradient at exactly 0 is taken as 0."""
    out_data = np.maximum(a.data, 0.0)
    return _result("relu", out_data, [(a, lambda g: g * (out_data > 0.0))])


def tanh(a: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    out_data = np.tanh(a.data)
    return _result("tanh", out_data, [(a, lambda g: g * (1.0 - out_data**2))])


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function, computed via tanh for stability."""
    out_data = np.tanh(0.5 * a.data)  # then 0.5 * (1 + t), in place
    out_data += 1.0
    out_data *= 0.5
    return _result("sigmoid", out_data, [(a, lambda g: g * out_data * (1.0 - out_data))])


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; any negative input is a domain error.

    The derivative is unbounded at exactly zero; differentiable callers
    should shift by a small constant first (see the diversity losses).
    """
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: negative input")
    out_data = np.sqrt(a.data)

    def back(g: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return g * (0.5 / out_data)

    return _result("sqrt", out_data, [(a, back)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes of [..., m, k] and [..., k, n].

    Both operands need rank >= 2; their leading axes broadcast as in
    ``np.matmul``.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul: operands of rank >= 2 required, got ranks {a.data.ndim} and {b.data.ndim}"
        )
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not match") from None
    return _result(
        "matmul",
        data,
        [
            (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)),
            (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)),
        ],
    )


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors [..., n_i] with equal leading axes along their last axis."""
    parts = list(parts)
    if not parts:
        raise DimensionError("concat: at least one input required")
    lead = parts[0].shape[:-1]
    for part in parts:
        if part.data.ndim < 1 or part.shape[:-1] != lead:
            raise DimensionError(f"concat: leading axes {lead} required, got shape {part.shape}")
    data = np.concatenate([part.data for part in parts], axis=-1)
    grads: list[tuple[Tensor, _GradFn]] = []
    start = 0
    for part in parts:
        stop = start + part.shape[-1]
        grads.append((part, lambda g, s=start, e=stop: g[..., s:e]))
        start = stop
    return _rearranged(data, grads)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """View the tensor under a new shape with the same number of entries."""
    shape = tuple(map(int, shape))
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}") from exc
    return _rearranged(data, [(a, lambda g: g.reshape(a.shape))])


def sum_all(a: Tensor) -> Tensor:
    """Sum every entry into a scalar tensor."""
    return _result(
        "sum_all",
        np.asarray(a.data.sum()),
        [(a, lambda g: g * np.ones_like(a.data))],
    )


def channel_sum(a: Tensor) -> Tensor:
    """Sum over the last axis: [..., C] -> [...]."""
    if a.data.ndim < 1:
        raise DimensionError(f"channel_sum: input of rank >= 1 required, got shape {a.shape}")
    return _result(
        "channel_sum",
        a.data.sum(axis=-1),
        [(a, lambda g: np.broadcast_to(g[..., None], a.shape))],
    )


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis of [..., N] with N >= 1, computed with the max shift."""
    if a.data.ndim < 1 or a.shape[-1] == 0:
        raise DimensionError(f"softmax: nonempty last axis required, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=-1, keepdims=True)

    def back(g: np.ndarray) -> np.ndarray:
        return probs * (g - np.sum(g * probs, axis=-1, keepdims=True))

    return _result("softmax", probs, [(a, back)])


def global_avg_pool(a: Tensor) -> Tensor:
    """Mean over the spatial extents of a map [..., H, W, C] -> [..., C]."""
    if a.data.ndim < 3:
        raise DimensionError(f"global_avg_pool: input of rank >= 3 required, got shape {a.shape}")
    height, width = a.shape[-3:-1]
    inv = 1.0 / (height * width)
    # bit for bit what ndarray.mean does, without its wrapper: it sums, then
    # divides in place by the count as an intp, so float32 sums divide in
    # float64 and round back, which equals the float32 division here (a
    # float64 quotient of float32 operands rounds to float32 correctly)
    data = np.add.reduce(a.data, axis=(-3, -2))
    data /= height * width
    return _result(
        "global_avg_pool",
        data,
        [(a, lambda g: np.broadcast_to(g[..., None, None, :] * inv, a.shape))],
    )


def avg_pool2(a: Tensor, factor: int = 2) -> Tensor:
    """Mean-pool the spatial extents of a map [..., H, W, C] by an integer factor."""
    if a.data.ndim < 3:
        raise DimensionError(f"avg_pool2: input of rank >= 3 required, got shape {a.shape}")
    factor = int(factor)
    if factor < 1:
        raise DimensionError(f"avg_pool2: factor must be >= 1, got {factor}")
    *lead, height, width, channels = a.shape
    if height % factor or width % factor:
        raise DimensionError(f"avg_pool2: extents {height}x{width} not divisible by {factor}")
    blocks = (*lead, height // factor, factor, width // factor, factor, channels)
    # the strided slices summed from +0 in row-major (i, j) order, then
    # divided: bit for bit the mean over the block axes of ``blocks``.  The
    # first slice plus 0.0 is that sum's first step, so an all -0.0 block
    # averages to +0.0, as the mean does.
    data = a.data[..., ::factor, ::factor, :] + 0.0
    for i in range(factor):
        for j in range(i == 0, factor):
            data += a.data[..., i::factor, j::factor, :]
    data /= factor * factor
    inv = 1.0 / (factor * factor)

    def back(g: np.ndarray) -> np.ndarray:
        return np.broadcast_to(g[..., :, None, :, None, :] * inv, blocks).reshape(a.shape)

    return _result("avg_pool2", data, [(a, back)])


def _check_conv(op: str, x: Tensor, kernels: Tensor, bias: Tensor) -> None:
    """Shape checks shared by the convolutions: maps [..., H, W, Cin], an
    odd-sized bank [kh, kw, Cin, Cout] and a bias [Cout]."""
    x_shape, k_shape = x.data.shape, kernels.data.shape
    if len(x_shape) < 3:
        raise DimensionError(f"{op}: input of rank >= 3 required, got shape {x_shape}")
    if len(k_shape) != 4:
        raise DimensionError(f"{op}: rank-4 kernels required, got shape {k_shape}")
    k_h, k_w, k_cin, c_out = k_shape
    if k_h % 2 == 0 or k_w % 2 == 0:
        raise DimensionError(f"{op}: kernel extents {k_h}x{k_w} must be odd")
    if k_cin != x_shape[-1]:
        raise DimensionError(f"{op}: input has {x_shape[-1]} channels, kernels expect {k_cin}")
    if bias.shape != (c_out,):
        raise DimensionError(f"{op}: bias of shape {bias.shape} for {c_out} output channels")


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """Same-padding stride-1 2-D convolution (ML convention, no kernel flip)
    plus a per-channel bias, optionally followed by a fused relu.

    Args:
        x: input maps [..., H, W, Cin].
        kernels: filter bank [kh, kw, Cin, Cout] with odd kh and kw.
        bias: one value per output channel, [Cout].
        relu: apply :func:`relu` to the result inside this op.  Its values
            and gradients are bit-equal to ``relu(conv2d(x, kernels, bias))``,
            but the tape records one entry and keeps no pre-activation; the
            pre-activation is checked for NaN and Inf first, so -inf still
            raises as a ``conv2d`` error.

    Returns:
        Tensor [..., H, W, Cout] in the result dtype of the three inputs;
        positions outside the frame contribute zero.  The forward pass
        multiplies the im2col columns (one row per map and position,
        ``kh * kw * Cin`` entries) with the flattened bank one block of whole
        maps at a time, each block at most ``_CONV_BLOCK_ROWS`` rows (or one
        map), and adds the bias to the product in place; the padded input
        and a block's columns are forward temporaries, and a 1x1 bank's
        columns are the maps themselves, with no padding.  The tape keeps x,
        which is alive as the op's input anyway: the kernels' backward
        rebuilds the zero border from it, and x's backward needs only the
        padded shape.  Each backward direction for x and the kernels is one
        product per kernel tap.
        Whether a map's result depends on the other maps stacked with it is
        up to how the BLAS blocks each product.  On OpenBLAS 0.3.31 (Haswell
        kernels, one thread), for 130-map float32 stacks, every conv of the
        default model gave results bit-equal to one-map calls with blocks of
        64 to 4,096 rows; with blocks of 8,192 rows or more, the 1x1
        attention conv from 32 to 4 channels differed by up to 5e-7.
    """
    _check_conv("conv2d", x, kernels, bias)
    *lead, height, width, c_in = x.shape
    k_h, k_w, _, c_out = kernels.shape
    pad_h, pad_w = k_h // 2, k_w // 2
    padded_shape = (*lead, height + k_h - 1, width + k_w - 1, c_in)
    k_data = kernels.data
    dtype = np.result_type(x.data, k_data)

    def pad() -> np.ndarray:  # x with its zero border; a 1x1 bank needs none
        if k_h == k_w == 1:
            return x.data.astype(dtype, copy=False)
        padded = np.zeros(padded_shape, dtype=dtype)
        padded[..., pad_h : pad_h + height, pad_w : pad_w + width, :] = x.data
        return padded

    padded = pad()  # a forward temporary: the closures below keep x, not this
    if k_h == k_w == 1:  # each map is its own columns
        windows = padded[..., None, None, :]
    else:
        # one view [..., H, W, kh, kw, Cin] of every window, already in column
        # order, so reshaping a block of maps is that block's one copy
        windows = _view(padded, (*lead, height, width, k_h, k_w, c_in),
                        (*padded.strides[:-1], *padded.strides[-3:]))
    bank = k_data.reshape(-1, c_out)
    maps, rows = math.prod(lead), height * width
    if maps * rows <= _CONV_BLOCK_ROWS:  # one block, without the loop's per-call cost
        out = windows.reshape(-1, bank.shape[0]) @ bank
    else:
        step = max(1, _CONV_BLOCK_ROWS // rows)  # maps per block
        windows = windows.reshape(maps, *windows.shape[-5:])  # still a view of padded
        out = np.empty((maps * rows, c_out), dtype=dtype)
        for start in range(0, maps, step):
            np.matmul(windows[start : start + step].reshape(-1, bank.shape[0]), bank,
                      out=out[start * rows : (start + step) * rows])
    out = out.astype(np.result_type(dtype, bias.data), copy=False)
    out += bias.data

    def back_x(g: np.ndarray) -> np.ndarray:
        grad_pad = np.zeros(padded_shape, dtype=dtype)
        g_mat = g.reshape(-1, c_out)
        for off_i, off_j in np.ndindex(k_h, k_w):
            grad_pad[..., off_i : off_i + height, off_j : off_j + width, :] += (
                g_mat @ k_data[off_i, off_j].T
            ).reshape(x.shape)
        return grad_pad[..., pad_h : pad_h + height, pad_w : pad_w + width, :]

    def back_k(g: np.ndarray) -> np.ndarray:
        grad_k = np.empty_like(k_data)
        g_mat = g.reshape(-1, c_out)
        padded = pad()
        for off_i, off_j in np.ndindex(k_h, k_w):
            window = padded[..., off_i : off_i + height, off_j : off_j + width, :]
            grad_k[off_i, off_j] = window.reshape(-1, c_in).T @ g_mat
        return grad_k

    record = _rectified if relu else _result
    return record(
        "conv2d",
        out.reshape(*lead, height, width, c_out),
        [(x, back_x), (kernels, back_k), (bias, lambda g: g.reshape(-1, c_out).sum(axis=0))],
    )


def gated_conv2d(x: Tensor, maps: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """:func:`conv2d` with a fused relu (``relu=True``) of every gated copy of
    the input maps, the stack
    ``np.moveaxis(maps, -1, -3)[..., None] * x[..., None, :, :, :]``,
    computed without forming the gated stack or its columns.  Its one caller
    always rectifies, so the relu is not optional: values and gradients are
    bit-equal to :func:`relu` of the unrectified op, which the tape does not
    keep.

    Args:
        x: input maps [..., H, W, Cin].
        maps: gates [..., H, W, P], P of them per input map, in the layout a
            conv with P output channels writes.
        kernels, bias: as for :func:`conv2d`.

    Returns:
        Tensor [..., P, H, W, Cout].  A gate is one scalar per position, so it
        commutes with the channel-mixing product: over the padded input X and
        padded gates A, output (p, i, j) is the bias plus the sum over the taps
        (di, dj) of ``A[i + di, j + dj, p] * (X[i + di, j + dj] @ K[di, dj])``.
        The forward pass makes one product of the padded input with the bank
        laid out as [Cin, kh * kw * Cout], giving every tap's product at every
        padded position; one strided view reads each tap's product back at the
        position it reads, and one [P, kh * kw] @ [kh * kw, Cout] product per
        position, with the gates' im2col, sums the taps.  It runs one block of
        whole maps at a time, each block at most ``_CONV_BLOCK_ROWS`` output
        rows (maps x parts x positions) or one map, so a map's result does not
        depend on the maps stacked with it.  Backward runs in the same blocks:
        it recomputes the tap products rather than keep them, makes the
        transposed batched products for the gates (scattered back one tap at
        a time) and for the tap products, and one product each over the
        block's padded input for x and the kernels, whose gradient sums the
        blocks.  The tape keeps the padded input and padded gates for that
        backward, and the rectified output for the relu's mask.  The sums run
        in another order than :func:`conv2d` of the gated stack, so float32
        results differ from it by rounding, about 1e-7 relative.
    """
    _check_conv("gated_conv2d", x, kernels, bias)
    *lead, height, width, c_in = x.shape
    if maps.data.ndim != x.data.ndim or maps.shape[:-1] != x.shape[:-1]:
        raise DimensionError(
            f"gated_conv2d: gates [..., H, W, P] required for input {x.shape}, got {maps.shape}"
        )
    parts = maps.shape[-1]
    k_h, k_w, _, c_out = kernels.shape
    taps, count = k_h * k_w, math.prod(lead)
    pad_h, pad_w = k_h // 2, k_w // 2
    dtype = np.result_type(x.data, maps.data, kernels.data)
    padded = np.zeros((count, height + k_h - 1, width + k_w - 1, c_in), dtype=dtype)
    padded[:, pad_h : pad_h + height, pad_w : pad_w + width] = x.data.reshape(
        count, height, width, c_in)
    gates = np.zeros((*padded.shape[:3], parts), dtype=dtype)
    gates[:, pad_h : pad_h + height, pad_w : pad_w + width] = maps.data.reshape(
        count, height, width, parts)
    bank = kernels.data.transpose(2, 0, 1, 3).reshape(c_in, taps * c_out).astype(dtype, copy=False)
    step = max(1, _CONV_BLOCK_ROWS // (parts * height * width))  # maps per block
    blocks = [slice(start, start + step) for start in range(0, count, step)]

    def tap_view(products: np.ndarray) -> np.ndarray:
        # [m, H, W, kh, kw, Cout] view of [m, H + kh - 1, W + kw - 1, kh, kw,
        # Cout]: each tap's product at the position that tap reads
        lead_stride, row, col, tap_i, tap_j, chan = products.strides
        return _view(products, (len(products), height, width, k_h, k_w, c_out),
                     (lead_stride, row, col, row + tap_i, col + tap_j, chan))

    def tap_products(block: slice) -> np.ndarray:  # [m, H, W, kh * kw, Cout]
        products = padded[block].reshape(-1, c_in) @ bank
        return tap_view(products.reshape(-1, *padded.shape[1:3], k_h, k_w, c_out)).reshape(
            -1, height, width, taps, c_out)

    def gate_columns(block: slice) -> np.ndarray:  # the gates' im2col [m, H, W, P, kh * kw]
        block_gates = gates[block]
        lead_stride, row, col, part = block_gates.strides
        columns = _view(block_gates, (len(block_gates), height, width, parts, k_h, k_w),
                        (lead_stride, row, col, part, row, col))
        return columns.reshape(-1, height, width, parts, taps)

    out = np.empty((count, parts, height, width, c_out), dtype=dtype)
    for block in blocks:
        np.matmul(gate_columns(block), tap_products(block), out=out[block].transpose(0, 2, 3, 1, 4))
    out = out.astype(np.result_type(dtype, bias.data), copy=False)
    out += bias.data

    memo: list = []  # [g, (grad x, grad maps, grad kernels)], formed together

    def grads(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if memo and memo[0] is g:
            return memo[1]
        grad_x = np.empty_like(padded)
        grad_gates = np.zeros_like(gates)
        grad_k = np.zeros((c_in, taps * c_out), dtype=dtype)
        g_parts = g.reshape(count, parts, height, width, c_out)
        for block in blocks:
            g_block = np.moveaxis(g_parts[block], 1, 3)  # [m, H, W, P, Cout]
            grad_columns = g_block @ np.swapaxes(tap_products(block), -1, -2)
            for tap in range(taps):
                off_i, off_j = divmod(tap, k_w)
                grad_gates[block, off_i : off_i + height, off_j : off_j + width] += (
                    grad_columns[..., tap])
            # each tap's gradient lands at the position its product was read
            # from, so one view takes them all, with no position written twice
            grad_products = np.zeros((len(g_block), *padded.shape[1:3], k_h, k_w, c_out),
                                     dtype=dtype)
            tap_view(grad_products)[...] = (
                np.swapaxes(gate_columns(block), -1, -2) @ g_block
            ).reshape(-1, height, width, k_h, k_w, c_out)
            flat = grad_products.reshape(-1, taps * c_out)
            grad_x[block] = (flat @ bank.T).reshape(-1, *padded.shape[1:])
            grad_k += padded[block].reshape(-1, c_in).T @ flat
        memo[:] = [g, (
            grad_x[:, pad_h : pad_h + height, pad_w : pad_w + width].reshape(x.shape),
            grad_gates[:, pad_h : pad_h + height, pad_w : pad_w + width].reshape(maps.shape),
            np.moveaxis(grad_k.reshape(c_in, k_h, k_w, c_out), 0, 2),
        )]
        return memo[1]

    return _rectified(
        "gated_conv2d",
        out.reshape(*lead, parts, height, width, c_out),
        [
            (x, lambda g: grads(g)[0]),
            (maps, lambda g: grads(g)[1]),
            (kernels, lambda g: grads(g)[2]),
            (bias, lambda g: g.reshape(-1, c_out).sum(axis=0)),
        ],
    )

"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the ``repro.nn`` substrate: a small,
tape-based autograd engine in the spirit of (but much smaller than)
PyTorch/TensorFlow.  The SESR paper's training-time machinery — linear
overparameterization, per-step analytic collapse, Adam — only needs a
modest set of differentiable primitives, all of which live here or in
:mod:`repro.nn.ops`.

Design notes
------------
* Activations are **NHWC** and convolution weights **HWIO** throughout,
  matching the TensorFlow-style pseudocode of Algorithm 1 in the paper.
* Every primitive records a backward closure on a tape; calling
  :meth:`Tensor.backward` walks the tape in reverse topological order and
  accumulates gradients into ``Tensor.grad`` (a plain ``np.ndarray``).
* Gradients broadcast exactly like NumPy; :func:`_unbroadcast` reduces a
  gradient back to the shape of its source operand.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import profiler as _profiler

DEFAULT_DTYPE = np.float32

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Grad mode is per-thread so inference threads (e.g. the repro.serve worker
# pool) can enter/exit no_grad without racing a training thread's tape.
_grad_state = threading.local()


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_state.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients (per thread)."""
    return getattr(_grad_state, "enabled", True)


def records(parents: Iterable["Tensor"]) -> bool:
    """Whether an op on ``parents`` goes on the autograd tape (per thread)."""
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an autograd tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` by default.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_buffer",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            # Preserve an existing floating dtype (float64 workflows keep
            # full precision); promote everything else to float32.
            if isinstance(data, np.ndarray) and np.issubdtype(
                data.dtype, np.floating
            ):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        arr = np.asarray(data, dtype=dtype)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._grad_buffer: Optional[np.ndarray] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The scalar value of a 1-element tensor."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy of the payload (graph links are not copied)."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------------ #
    # graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _result(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op result, wiring the tape if gradients are enabled."""
        req = records(parents)
        out = Tensor(data, requires_grad=req, dtype=data.dtype)
        if req:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (avoids recursion limits on
        # deep expanded-space graphs).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                continue
            # Leaf-style accumulation also happens for interior nodes that
            # the user marked requires_grad explicitly (e.g. probes).
            node._backward(g)
            for p in node._parents:
                if p.requires_grad and p._grad_buffer is not None:
                    pg = p._grad_buffer
                    p._grad_buffer = None
                    if p._backward is None:
                        p._accumulate(pg)
                    else:
                        key = id(p)
                        if key in grads:
                            grads[key] = grads[key] + pg
                        else:
                            grads[key] = pg

    def _send(self, grad: np.ndarray) -> None:
        """Deliver ``grad`` to this parent during the reverse sweep."""
        if self._grad_buffer is None:
            self._grad_buffer = grad
        else:
            self._grad_buffer = self._grad_buffer + grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._send(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._send(_unbroadcast(g, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._send(-g)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._send(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._send(_unbroadcast(g * self.data, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._send(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._send(
                    _unbroadcast(-g * self.data / (other.data**2), other.shape)
                )

        return Tensor._result(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            self._send(g * exponent * self.data ** (exponent - 1))

        return Tensor._result(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        prof = _profiler.ACTIVE  # None check only when profiling is off
        if prof is not None:
            t0 = time.perf_counter()
        out_data = a @ b
        if prof is not None:
            prof.record(
                "matmul",
                time.perf_counter() - t0,
                macs=int(out_data.size) * int(a.shape[-1]),
            )

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                self._send(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ g
                other._send(_unbroadcast(gb, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._send(g * out_data)

        return Tensor._result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""

        def backward(g: np.ndarray) -> None:
            self._send(g / self.data)

        return Tensor._result(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self**0.5

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at the kink)."""
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            self._send(g * sign)

        return Tensor._result(np.abs(self.data), (self,), backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum (ties route gradient to ``self``)."""
        other = as_tensor(other)
        out_data = np.maximum(self.data, other.data)
        mask = self.data >= other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._send(_unbroadcast(g * mask, self.shape))
            if other.requires_grad:
                other._send(_unbroadcast(g * ~mask, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise minimum (ties route gradient to ``self``)."""
        other = as_tensor(other)
        out_data = np.minimum(self.data, other.data)
        mask = self.data <= other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._send(_unbroadcast(g * mask, self.shape))
            if other.requires_grad:
                other._send(_unbroadcast(g * ~mask, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values to [lo, hi]; gradient is 1 inside, 0 outside."""
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g: np.ndarray) -> None:
            self._send(g * mask)

        return Tensor._result(np.clip(self.data, lo, hi), (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            if axis is None:
                self._send(np.broadcast_to(g, in_shape).copy())
                return
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            if not keepdims:
                g = np.expand_dims(g, tuple(a % len(in_shape) for a in axes))
            self._send(np.broadcast_to(g, in_shape).copy())

        return Tensor._result(out_data, (self,), backward)

    def mean(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        """Arithmetic mean over ``axis`` (all axes when None)."""
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient splits evenly across ties."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            expanded = out_data
            gg = g
            if axis is not None and not keepdims:
                expanded = np.expand_dims(out_data, axis)
                gg = np.expand_dims(g, axis)
            mask = self.data == expanded
            # Split the gradient evenly across ties (matches JAX semantics).
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._send(gg * mask / counts)

        return Tensor._result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: Union[int, Tuple[int, ...]]) -> "Tensor":
        """View with a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            self._send(g.reshape(in_shape))

        return Tensor._result(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        """Permute axes."""
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))

        def backward(g: np.ndarray) -> None:
            self._send(g.transpose(inv))

        return Tensor._result(self.data.transpose(axes), (self,), backward)

    def flip(self, axes: Union[int, Tuple[int, ...]]) -> "Tensor":
        """Reverse the order of elements along ``axes``."""
        axes = (axes,) if isinstance(axes, int) else tuple(axes)

        def backward(g: np.ndarray) -> None:
            self._send(np.flip(g, axes))

        return Tensor._result(np.flip(self.data, axes).copy(), (self,), backward)

    def pad(self, pad_width: Sequence[Tuple[int, int]]) -> "Tensor":
        """Zero-pad each axis by ``(before, after)`` amounts."""
        pad_width = tuple((int(a), int(b)) for a, b in pad_width)
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(a, dim + a) for (a, _), dim in zip(pad_width, self.shape)
        )

        def backward(g: np.ndarray) -> None:
            self._send(g[slices])

        return Tensor._result(out_data, (self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            full = np.zeros(in_shape, dtype=g.dtype)
            np.add.at(full, idx, g)
            self._send(full)

        return Tensor._result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # comparisons (non-differentiable, return numpy)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data


def as_tensor(x: ArrayLike) -> Tensor:
    """Coerce array-likes and scalars to :class:`Tensor` (no copy for tensors)."""
    return x if isinstance(x, Tensor) else Tensor(x)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._send(np.squeeze(piece, axis=axis))

    return Tensor._result(out_data, tuple(tensors), backward)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                t._send(g[tuple(sl)])

    return Tensor._result(out_data, tuple(tensors), backward)


def where(mask: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable select; ``mask`` is a constant boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._send(_unbroadcast(np.where(mask, g, 0.0), a.shape))
        if b.requires_grad:
            b._send(_unbroadcast(np.where(mask, 0.0, g), b.shape))

    return Tensor._result(out_data, (a, b), backward)

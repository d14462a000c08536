"""Tape-based reverse-mode differentiation over numpy arrays.

A deliberately small substrate: the fixed set of ops below is everything the
networks and the closed-form pose/hand math in this package need. Ops append
to a Tape in execution order, so the reverse sweep is a plain reversed loop
(a Wengert list), no graph search. A tape is swept once: a second
`Tape.backward` raises, since it would add every intermediate's gradient in
again.

Gradient ownership. A Var's grad is either owned, an array nothing else
holds, or borrowed, one that may also be another Var's grad, a view of one,
or the caller's seed; only an owned grad is ever written in place. A
backward function hands a gradient over in one of two ways:
- `Var._own_grad` for an array the backward allocated: the products of
  `matmul` and `linear`, linear's shift sum, the dense scatters of `take`
  and `vmax`, and `softmax_cross_entropy`'s. A first such gradient of the
  Var's dtype and shape becomes the Var's own, without a copy.
- `Var._add_grad` for every other gradient, among them the arrays that
  may alias another: the identity partials of `add` and `sub`, `vsum`'s
  broadcast views, `concat` and `stack` slices and the seed. A first such
  gradient of the Var's dtype and shape is borrowed; one of another dtype
  or shape is copied, and the copy is owned.
An owned grad takes every later contribution in place. A borrowed grad that
meets a second contribution is replaced by a new sum, laid out like the
borrowed array or, when that is a broadcast view, C-ordered, and the Var
owns the sum. The sweep calls each backward as `fn(g, owned)`, `owned`
telling whether its output Var owned `g`: `reshape` passes an owned `g` on
as owned, and `linear` applies its ReLU mask to an owned C-ordered `g` in
place. No backward writes into a borrowed `g`. A grad always has its Var's
dtype, so `g` has the dtype of the output it belongs to. Every sum is the
one a copying tape computes, in the same order. A borrowed grad can be a
strided or broadcast (read-only) view where a copy would be packed, and
numpy can round a later reduction differently by memory layout, so
tests/test_autodiff.py checks whole training runs bit for bit against a
tape that copies every first gradient.

Row blocks. When `g` spans two or more ROW_BLOCK = 1024 row blocks,
`linear`'s backward masks an owned `g` by its ReLU one block at a time, and
when its input x already owns a C-ordered gradient it adds `g[lo:hi] @ w.T`
into `x.grad[lo:hi]` block by block, so it holds no full-size mask or
product. The cuts come from `row_cuts`: inner cuts on multiples of
ROW_BLOCK, and the last block keeps the remainder, so no block is shorter
than ROW_BLOCK. The blocked sum is the single product's bit for bit only
because the BLAS computes each output row the same way in every product of
at least ROW_BLOCK rows; a short block (37 rows, or blocks of 64) rounds
some rows differently on OpenBLAS 0.3.31. A first or borrowed gradient,
and any `g` of one block (TTA's 1024-row tapes, the gradient checks), take
the single product.
tests/test_autodiff.py's TestRowBlocks checks the blocked sum against the
single product and the copying tape, a training run on a 2048-point scene
against one with a single block, and that a 37-row last block changes the
bits; the one-BLAS-thread CI step runs it again.

Gradient lifetime. `Tape.backward` pops each record as it sweeps it, in
the same reverse order, and once a record's backward has run its output Var
drops its grad: no later record can add to it, since every op that read it
was recorded after it. The closure, and any forward array only it still
holds, then go with the record, so a swept tape is empty and the graph
behind the sweep is freed as it goes. Leaves (`leaf` inputs and the
parameters from `ParamStore.use`) keep their grads; the grads of op outputs
are not kept, as in PyTorch without `retain_grad`.

Rebuilt activations. `linear(..., rebuild=True)` on a recording tape marks
its output as rebuilt: an activation whose one forward consumer is another
`linear`. The consumer drops the array (its `data` becomes None) once its
own product is taken, so nothing holds it from then until the backward. The
consumer's backward, the first to read it (its input gradient takes the
activation's shape and dtype, its weight gradient its values), recomputes
it through `Var._value`: one call over all rows with the forward's ops, so
it is the dropped array bit for bit, as long as the BLAS gives the same
bits for the same call (the one-BLAS-thread CI step runs the rebuild tests
again). The producer's ReLU mask reads the rebuilt array, which stays on
its Var until the producer's record pops. This trades one more
forward product per marked layer for its memory, as in Chen et al.,
"Training Deep Nets with Sublinear Memory Cost" (arXiv 1604.06174). An
output that records nothing, as on every grad=False tape, is never marked,
so forward-only passes keep no rebuild state. The estimator marks two
activations (see estimator.py's module docstring).

Forward-only passes. A tape that is never swept is built with
`Tape(grad=False)`: leaves and parameters enter it as consts, so no op
records anything, and `backward` on it raises. Inference and the
finite-difference evaluations run the training graph builders this way.
The contact sampler builds no tape at all: `ContactDiffuser.denoise_value`
is plain numpy with the ops of `linear` in their order.

Views and exact values. `take` over a run of consecutive indices returns
a view: the output aliases its input, and it is marked read-only, so no op
can write through it into the input (or into the input's own source, such
as a parameter array). Everything downstream reads the same numbers a copy
would hold. `vmax` takes its values from `max` and computes the argmax only
in the backward, where the gradient needs it. `max` and the first argmax
agree on every value except a zero maximum, where -0.0 and +0.0 compare
equal and `max` may return either, and a NaN maximum, whose payload `max`
need not take from the first NaN. Those entries are read at their argmax, so
the forward is bit for bit the value at the first argmax, as before.

The ReLU of `linear` is `np.maximum(out, 0, out=out)` in place, and its
backward rebuilds the mask from that output: `x > 0` exactly when
`max(x, 0) > 0`, for NaN and -0.0 too, so no mask is kept. When `take`'s
input already has a gradient, its backward adds `g` into `grad + 0.0` at
the taken indices, which is bit for bit `grad + full` for the dense `full`
(zeros, and `g + 0.0` at those indices): `(x + 0.0) + y` equals
`x + (y + 0.0)` for every value, ±0.0, ±inf and NaN payloads included.
`vmax`'s `full` holds `g` itself at the argmax, and `-0.0 + -0.0` is -0.0
where `(-0.0 + 0.0) + -0.0` is +0.0, so its backward onto an existing
gradient sums the argmax entries `grad + g` first, then takes `grad + 0.0`
in place and writes those sums back.

Dtypes. `vsum` accumulates in float64 and casts back to its input's dtype;
every other op takes numpy's promotion of its operands. A Python scalar
operand becomes a float64 array in `_wrap`, so it promotes a float32 Var to
float64: `vmean` multiplies by `1.0 / n`, so the mean of a float32 Var is
float64, and `ad.add(x, 1e-6)` does the same. A float32 training graph is therefore
not float32 throughout: on float32 clouds `Estimator.encode_graph` returns
`pooled` as float64 and `Estimator.heads_graph` returns `rot` as float64
(local, mx, seg and nocs stay float32). Gradient checks run in float64. The
planned fix is the dtype-honest tape of the ROADMAP.md item "Training speed:
a train unit is bound by BLAS".
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import ShapeMismatch
from .geometry import cross


ROW_BLOCK = 1024  # linear's backward adds x's gradient in blocks of at least this many rows


def row_cuts(n: int, multiple: int, parts: int) -> list[int]:
    """Bounds of k = min(parts, n // multiple) contiguous row blocks (at
    least one): the inner cuts fall on multiples of `multiple`, and the
    last block keeps the remainder rows, so no block of two or more is
    shorter than `multiple`."""
    blocks = n // multiple
    k = max(1, min(parts, blocks))
    return [multiple * (blocks * i // k) for i in range(k)] + [n]


class Tape:
    """Execution-ordered op record plus parameter-use bookkeeping.

    With grad=False the tape records nothing (see the module docstring).
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self._ops = []  # (out Var, backward fn(g, owned))
        self.param_uses = []  # (store, name, var, version)
        self._swept = False

    def record(self, out: "Var", backward):
        self._ops.append((out, backward))

    def backward(self, var: "Var", seed=None):
        """Reverse sweep from `var`; accumulates grads on every leaf on the path.

        Runs once per tape and leaves it empty; op outputs drop their grads
        (see the module docstring). The seed may end up as a leaf's grad
        without a copy.
        """
        if not self.grad:
            raise RuntimeError("tape built with grad=False records nothing to sweep")
        if self._swept:
            raise RuntimeError("tape already swept; build a new tape for another backward")
        self._swept = True
        if seed is None:
            if var.data.shape != ():
                raise ShapeMismatch("non-scalar output needs an explicit seed grad")
            seed = np.ones((), dtype=var.data.dtype)
        else:
            seed = np.asarray(seed, dtype=var.data.dtype)
            if seed.shape != var.data.shape:
                raise ShapeMismatch(
                    f"seed grad shape {seed.shape} != output shape {var.data.shape}"
                )
        var._add_grad(seed)
        ops = self._ops
        while ops:
            out, fn = ops.pop()
            g = out.grad
            if g is not None:
                owned = out._owns_grad
                out.grad, out._owns_grad = None, False
                fn(g, owned)


class Var:
    """An array node on a tape. Leaves created via const() or leaf().

    The back-reference to the tape is weak: the tape owns the graph (ops
    reference their input Vars), so a strong Var -> Tape edge would form a
    cycle and batch-sized graphs would pile up waiting for the cyclic GC.
    """

    __slots__ = ("data", "grad", "requires_grad", "_owns_grad", "_rebuild", "_tape_ref", "__weakref__")

    def __init__(self, data, tape: Tape, requires_grad: bool):
        self.data = np.asarray(data)
        self.grad = None
        self._owns_grad = False
        self._rebuild = None  # recomputes a rebuilt activation's data
        self.requires_grad = requires_grad
        self._tape_ref = weakref.ref(tape)

    @property
    def tape(self) -> Tape:
        tape = self._tape_ref()
        if tape is None:
            raise RuntimeError("tape was garbage collected; keep it alive while building")
        return tape

    def _value(self) -> np.ndarray:
        """`data`, recomputed first when it is a rebuilt activation that its
        consumer dropped (see "Rebuilt activations" in the module docstring)."""
        if self.data is None:
            self.data = self._rebuild()
        return self.data

    def _add_grad(self, g):
        """Accumulate `g`, borrowing a first gradient (see the module docstring)."""
        if self._owns_grad:
            self.grad += g
        elif self.grad is not None:
            # empty_like would lay a broadcast view's sum out transposed
            if 0 in self.grad.strides:
                out = np.empty(self.grad.shape, dtype=self.grad.dtype)
            else:
                out = np.empty_like(self.grad)
            self.grad = np.add(self.grad, g, out=out)
            self._owns_grad = True
        elif (
            isinstance(g, np.ndarray)
            and g.dtype == self.data.dtype
            and g.shape == self.data.shape
        ):
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
            self._owns_grad = True

    def _own_grad(self, g):
        """Accumulate `g`, a new array that nothing else holds: a first
        gradient kept without a copy becomes the Var's own."""
        self._add_grad(g)
        if self.grad is g:
            self._owns_grad = True


def const(x, tape: Tape) -> Var:
    """A leaf that never receives gradient."""
    return Var(x, tape, requires_grad=False)


def leaf(x, tape: Tape) -> Var:
    """A leaf whose gradient is wanted (parameters, probed inputs); a const
    on a grad=False tape."""
    return Var(x, tape, requires_grad=tape.grad)


def _wrap(x, tape: Tape) -> Var:
    return x if isinstance(x, Var) else const(np.asarray(x), tape)


def _pair(a, b):
    if isinstance(a, Var):
        return a, _wrap(b, a.tape)
    if isinstance(b, Var):
        return _wrap(a, b.tape), b
    raise TypeError("at least one operand must be a Var")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, out_data, da, db):
    a, b = _pair(a, b)
    req = a.requires_grad or b.requires_grad
    out = Var(out_data, a.tape, req)
    if req:
        def back(g, owned):
            if a.requires_grad:
                a._add_grad(_unbroadcast(da(g), a.data.shape))
            if b.requires_grad:
                b._add_grad(_unbroadcast(db(g), b.data.shape))
        a.tape.record(out, back)
    return out


def add(a, b):
    a, b = _pair(a, b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _pair(a, b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _pair(a, b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def div(a, b):
    a, b = _pair(a, b)
    out_data = a.data / b.data
    return _binary(
        a, b, out_data, lambda g: g / b.data, lambda g: -g * out_data / b.data
    )


def matmul(a, b):
    """Matrix product of 2-D operands, or of stacks (B, m, k) @ (B, k, n),
    one product per leading index; a 1-D operand is promoted to 2-D and
    squeezed back."""
    a, b = _pair(a, b)
    ad = a.data[None, :] if a.data.ndim == 1 else a.data
    bd = b.data[:, None] if b.data.ndim == 1 else b.data
    if (
        ad.ndim != bd.ndim
        or ad.ndim not in (2, 3)
        or ad.shape[:-2] != bd.shape[:-2]
        or ad.shape[-1] != bd.shape[-2]
    ):
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    out_data = ad @ bd
    if a.data.ndim == 1:
        out_data = out_data[0]
    if b.data.ndim == 1:
        out_data = out_data[..., 0]
    req = a.requires_grad or b.requires_grad
    out = Var(out_data, a.tape, req)
    if req:
        def back(g, owned):
            g2 = g.reshape(ad.shape[:-1] + bd.shape[-1:])
            if a.requires_grad:
                a._own_grad((g2 @ np.swapaxes(bd, -1, -2)).reshape(a.data.shape))
            if b.requires_grad:
                b._own_grad((np.swapaxes(ad, -1, -2) @ g2).reshape(b.data.shape))
        a.tape.record(out, back)
    return out


def linear(x: Var, w: Var, b: Var, relu: bool, shift: Var | None = None, rebuild: bool = False) -> Var:
    """x @ w (+ shift) + b, then a ReLU when `relu`: one op for the chain.

    `shift` (S, H) is one row per block: x's rows fall into S blocks of
    equal size n, and block i gets shift[i], as if `repeat_rows(shift, n)`
    were added. Same arithmetic and the same order of gradient contributions
    as the ops matmul, add(repeat_rows(shift)), add(b) and a ReLU: bias
    first, then shift, then x, then w. x and w are 2-D, and b and shift have
    the dtype of x @ w (the sums and the ReLU are taken in place). The
    in-place ReLU keeps NaN where np.where(out > 0, out, 0) gives 0; the
    backward masks by `out > 0` on the activated output. A backward over
    two or more ROW_BLOCK row blocks masks an owned `g`, and adds into a
    gradient x owns, block by block (see "Row blocks" in the module
    docstring). With `rebuild` on a recording tape, the output is a rebuilt
    activation: its one consumer, a `linear`, drops it, and that consumer's
    backward recomputes it (see "Rebuilt activations").
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatch(f"linear {x.data.shape} @ {w.data.shape}")
    n, H = x.data.shape[0], w.data.shape[1]
    if shift is not None:
        S = shift.data.shape[0]
        if shift.data.shape[1] != H or S == 0 or n % S:
            raise ShapeMismatch(f"shift {shift.data.shape} for {(n, H)} rows")

    def value():
        out_data = x._value() @ w.data
        if shift is not None:
            blocks = out_data.reshape(S, -1, H)
            blocks += shift.data[:, None, :]
        out_data += b.data
        if relu:
            np.maximum(out_data, 0, out=out_data)
        return out_data

    out_data = value()
    if x._rebuild is not None:
        x.data = None  # its one consumer has run (see "Rebuilt activations")
    req = x.requires_grad or w.requires_grad or b.requires_grad
    req = req or (shift is not None and shift.requires_grad)
    out = Var(out_data, x.tape, req)
    if req:
        if rebuild:
            out._rebuild = value

        def x_grad(gb):
            if w.data.shape[1] == 1:
                # the outer product without matmul's slow narrow path;
                # + 0.0 turns -0.0 into the +0.0 BLAS gives
                gx = gb * w.data.T
                gx += 0.0
                return gx
            return gb @ w.data.T

        def back(g, owned):
            xd = x._value()  # rebuilt here when it was dropped
            cuts = row_cuts(n, ROW_BLOCK, n // ROW_BLOCK)
            spans = list(zip(cuts[:-1], cuts[1:]))
            if relu and owned and g.flags.c_contiguous:
                for lo, hi in spans:
                    g[lo:hi] *= out.data[lo:hi] > 0
            elif relu:
                g = g * (out.data > 0)
            if b.requires_grad:
                b._add_grad(_unbroadcast(g, b.data.shape))
            if shift is not None and shift.requires_grad:
                shift._own_grad(g.reshape(S, -1, H).sum(axis=1))
            if x.requires_grad:
                if len(spans) > 1 and x._owns_grad and x.grad.flags.c_contiguous:
                    # one block's product at a time (see "Row blocks")
                    for lo, hi in spans:
                        x.grad[lo:hi] += x_grad(g[lo:hi])
                else:
                    x._own_grad(x_grad(g))
            if w.requires_grad:
                w._own_grad(xd.T @ g)
        x.tape.record(out, back)
    return out


def _unary(a, out_data, da):
    out = Var(out_data, a.tape, a.requires_grad)
    if a.requires_grad:
        a.tape.record(out, lambda g, owned: a._add_grad(da(g)))
    return out


def exp(a: Var):
    out_data = np.exp(a.data)
    return _unary(a, out_data, lambda g: g * out_data)


def sqrt(a: Var):
    """Square root with a zero-subgradient at exactly 0 (norms at zero)."""
    out_data = np.sqrt(a.data)
    safe = np.where(out_data > 0, 2.0 * out_data, np.inf)
    return _unary(a, out_data, lambda g: g / safe)


def sin(a: Var):
    return _unary(a, np.sin(a.data), lambda g: g * np.cos(a.data))


def cos(a: Var):
    return _unary(a, np.cos(a.data), lambda g: -g * np.sin(a.data))


def clamp_min(a: Var, lo: float):
    mask = a.data > lo
    return _unary(a, np.maximum(a.data, lo), lambda g: g * mask)


def select(a: Var, keep: np.ndarray):
    """a where the bool `keep` (broadcast to a's shape) holds, 0 elsewhere,
    with 0 gradient there. Unlike a product with a 0/1 mask (0 * NaN is
    NaN), a non-finite entry outside `keep` reaches neither the value nor
    the gradient."""
    keep = np.broadcast_to(keep, a.data.shape)
    return _unary(a, np.where(keep, a.data, 0), lambda g: np.where(keep, g, 0))


def vsum(a: Var, axis=None, keepdims=False):
    """Sum with float64 accumulation, cast back to the input dtype."""
    out_data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(
        a.data.dtype
    )

    def da(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape)
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape)

    return _unary(a, out_data, da)


def vmean(a: Var, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(vsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def vmax(a: Var, axis: int):
    """Max along one axis; gradient routes to the first argmax (ties broken low).

    The value is the one at the first argmax, bit for bit: `max` gives it
    except for a zero or NaN maximum, whose sign or payload `max` may take
    from another element, so those entries are read at their argmax. The
    full argmax runs only in the backward.
    """
    out_data = a.data.max(axis=axis, keepdims=True)
    odd = (out_data == 0) | np.isnan(out_data)
    if odd.any():
        cols = np.moveaxis(a.data, axis, -1)[np.moveaxis(odd, axis, -1)[..., 0]]
        first = cols[np.arange(len(cols)), np.argmax(cols, axis=-1)]
        out_data[odd] = first
    out_data = np.squeeze(out_data, axis=axis)

    def back(g, owned):
        idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
        g = np.expand_dims(g, axis)
        if a.grad is None:
            full = np.zeros_like(a.data)
            np.put_along_axis(full, idx, g, axis=axis)
            a._own_grad(full)
        else:
            # grad + full for the dense full (zeros, g at the argmax): the
            # argmax entries are summed from the old grad before it takes
            # its + 0.0 in place
            at = np.take_along_axis(a.grad, idx, axis=axis) + g
            a._add_grad(0.0)
            np.put_along_axis(a.grad, idx, at, axis=axis)

    out = Var(out_data, a.tape, a.requires_grad)
    if a.requires_grad:
        a.tape.record(out, back)
    return out


def reshape(a: Var, shape):
    """A view of `a` in another shape; an owned gradient passes back through."""
    out = Var(a.data.reshape(shape), a.tape, a.requires_grad)
    if a.requires_grad:
        def back(g, owned):
            ga = g.reshape(a.data.shape)
            (a._own_grad if owned else a._add_grad)(ga)

        a.tape.record(out, back)
    return out


def permute(a: Var, axes):
    inverse = np.argsort(axes)
    return _unary(
        a, np.transpose(a.data, axes), lambda g: np.transpose(g, inverse)
    )


def _run_start(idx: np.ndarray, n: int):
    """First index of `idx` when it is a non-empty ascending run of
    consecutive integers in [0, n), else None. Integers whose ends lie
    size - 1 apart are consecutive exactly when they strictly increase."""
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        return None
    lo, hi = idx.item(0), idx.item(-1)
    if lo < 0 or hi >= n or hi - lo != idx.size - 1:
        return None
    return lo if idx.size < 3 or (idx[1:] > idx[:-1]).all() else None


def take(a: Var, indices, axis: int = 0):
    """Gather along an axis; backward scatter-adds (repeats accumulate).

    Indices that form a run (see `_run_start`) give a read-only view of the
    input, the basic slice they spell; any other indices go through
    np.take, which raises on out-of-range ones. The backward is the
    scatter-add of `g` into zeros added to the input's gradient, bit for
    bit (so a -0.0 lands as +0.0): a run writes a slice, unique indices
    assign, and repeated indices assign their first occurrences and
    `np.add.at` only the later ones, in their given order. A run or unique
    indices meeting an existing gradient add `g` into `grad + 0.0` there
    instead, with no dense zeros (see the module docstring).
    """
    idx = np.asarray(indices)
    ax = axis % a.data.ndim
    lo = _run_start(idx, a.data.shape[ax])

    def at(i):
        return (slice(None),) * ax + (i,)

    if lo is None:
        out_data = np.take(a.data, idx, axis=axis)
    else:
        out_data = a.data[at(slice(lo, lo + idx.size))]
        out_data.flags.writeable = False

    def back(g, owned):
        full = None
        if lo is not None:
            key = at(slice(lo, lo + idx.size))
        elif idx.ndim != 1 or idx.size == 0 or idx.min() < 0:
            full = np.zeros_like(a.data)
            np.add.at(full, at(idx), g)
        else:
            key = at(idx)
            first = np.unique(idx, return_index=True)[1]
            if first.size < idx.size:
                later = np.ones(idx.size, dtype=bool)
                later[first] = False
                full = np.zeros_like(a.data)
                full[at(idx[first])] = np.take(g, first, axis=ax) + 0.0
                np.add.at(full, at(idx[later]), np.compress(later, g, axis=ax))
        if full is not None:
            a._own_grad(full)
        elif a.grad is not None:
            a._add_grad(0.0)  # grad + 0.0 everywhere, into a grad `a` owns
            a.grad[key] += g
        else:
            full = np.zeros_like(a.data)
            if lo is not None:
                np.add(g, 0.0, out=full[key])
            else:
                full[key] = g + 0.0
            a._own_grad(full)

    out = Var(out_data, a.tape, a.requires_grad)
    if a.requires_grad:
        a.tape.record(out, back)
    return out


def repeat_rows(a: Var, n: int):
    """(B, C) -> (B*n, C), each row repeated n times contiguously."""
    if a.data.ndim != 2:
        raise ShapeMismatch("repeat_rows expects a 2-D array")
    B, C = a.data.shape
    out_data = np.repeat(a.data, n, axis=0)
    return _unary(a, out_data, lambda g: g.reshape(B, n, C).sum(axis=1))


def concat(parts, axis: int = -1):
    parts = list(parts)
    tape = next(p.tape for p in parts if isinstance(p, Var))
    parts = [_wrap(p, tape) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    req = any(p.requires_grad for p in parts)
    out = Var(out_data, tape, req)
    if req:
        sizes = [p.data.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def back(g, owned):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    p._add_grad(g[tuple(sl)])

        tape.record(out, back)
    return out


def stack(parts, axis: int = 0):
    parts = list(parts)
    tape = next(p.tape for p in parts if isinstance(p, Var))
    parts = [_wrap(p, tape) for p in parts]
    out_data = np.stack([p.data for p in parts], axis=axis)
    req = any(p.requires_grad for p in parts)
    out = Var(out_data, tape, req)
    if req:
        def back(g, owned):
            slices = np.moveaxis(g, axis, 0)
            for p, gs in zip(parts, slices):
                if p.requires_grad:
                    p._add_grad(gs)

        tape.record(out, back)
    return out


def cross3(a, b):
    """Cross product on (..., 3) arrays (geometry.cross, np.cross's bits)."""
    a, b = _pair(a, b)
    return _binary(
        a,
        b,
        cross(a.data, b.data),
        lambda g: cross(b.data, g),
        lambda g: cross(g, a.data),
    )


def softmax_cross_entropy(logits: Var, labels) -> Var:
    """Per-row CE of integer labels against logits (N, C); returns (N,)."""
    z = logits.data
    if z.ndim != 2:
        raise ShapeMismatch("softmax_cross_entropy expects (N, C) logits")
    lab = np.asarray(labels)
    if lab.shape != (z.shape[0],):
        raise ShapeMismatch(f"labels shape {lab.shape} != ({z.shape[0]},)")
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(sez)
    out_data = -logp[np.arange(z.shape[0]), lab]
    out = Var(out_data, logits.tape, logits.requires_grad)
    if logits.requires_grad:
        def back(g, owned):
            p = ez / sez
            p[np.arange(z.shape[0]), lab] -= 1.0
            p *= g[:, None]
            logits._own_grad(p)

        logits.tape.record(out, back)
    return out


def norm_rows(a: Var) -> Var:
    """Euclidean norm of each row of an (N, D) array; zero rows get zero grad."""
    return sqrt(vsum(mul(a, a), axis=1))

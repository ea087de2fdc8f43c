"""Minimal reverse-mode autodiff over dense float64 arrays.

Every numeric operation the generation models need is a recorded primitive
on a Tape. Calling a primitive validates shapes, computes the forward value
with numpy, and records a vector-Jacobian closure so `backward` can
accumulate gradients by reverse traversal.

Matmul, embedding and row-slice gradients are summed once per tensor: both
operands of a matmul, an embedding table and a sliced tensor get deferred
pieces instead of a dense gradient per use. `backward` sums a non-leaf's
pieces when it reaches the entry that produced it, and a leaf's after the
sweep (or, for matmul and embedding pieces, a batch's sweeps).
That order of summation differs from one dense gradient per use, so
gradients and trained parameters can move in the last place, not the loss.

Finiteness is checked where a value is born: a tape checks each output as it
is produced, and each tensor it did not produce (a leaf, or an output of
another tape) the first time it reads it, never again. A leaf must therefore
not change in place while a tape that has read it is still in use. A tensor
marked `verified` is type-checked but never scanned: each writer of its data
keeps it finite and checks only what it writes. The model's parameters are
verified, since at paper scale one scan of the output weight costs several
times the matmul that reads it. A non-finite value written past every writer
fails the output check of the first primitive that reads it.

A tape built with `record=False` runs the same primitives with the same
checks, but keeps no entries and no vector-Jacobian closures, so inference
frees each intermediate once it is unused; `backward` rejects such a tape.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import struct
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .fileio import atomic_write


class TapeError(ValueError):
    """Raised for shape mismatches, non-finite values, or misuse of the tape."""


class CheckpointError(ValueError):
    """Raised for malformed or version-incompatible checkpoint files."""


_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """Dense float64 array.

    `data` is a shaped numpy array.
    `backward` returns gradients for the leaf tensors created with
    requires_grad=True; tensors produced by tape primitives track gradient
    flow automatically. `verified` tells every tape that `data` is finite and
    stays so (see the module docstring); it starts False.
    """

    __slots__ = ("data", "requires_grad", "name", "verified", "_tracked", "_born")

    def __init__(self, data, requires_grad=False, name=None):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.verified = False
        self._tracked = self.requires_grad
        self._born = None  # the mark of the tape that produced it

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        return f"<Tensor shape={self.data.shape}{label} requires_grad={self.requires_grad}>"


def parameter(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting; `grad` itself if it has `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _all_finite(a):
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def _stable_sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _row_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# Each forward rule returns (output array, vjp) where vjp maps the output
# gradient to a list of input gradients aligned with the inputs. A gradient
# is a dense array or a deferred piece: (p, q, transposed) for either operand
# of a matmul, standing for p.T @ q (transposed if `transposed`), (ids, g)
# for an embedding table, standing for g's rows added at `ids`, and
# (slice(start, stop), g) for a row slice, standing for g in those rows.

def _fw_matmul(arrays, meta):
    a, b = arrays
    ta, tb = meta.get("transpose_a", False), meta.get("transpose_b", False)
    if a.ndim != 2 or b.ndim != 2:
        raise TapeError(f"matmul: expected 2-D operands, got shapes {a.shape} and {b.shape}")
    aop = a.T if ta else a
    bop = b.T if tb else b
    if aop.shape[1] != bop.shape[0]:
        raise TapeError(f"matmul: incompatible shapes {a.shape} and {b.shape} "
                        f"(transpose_a={ta}, transpose_b={tb})")
    out = aop @ bop

    def vjp(g):
        return [(g.T, bop.T, ta), (aop, g, tb)]  # both gradients are deferred

    return out, vjp


def _fw_add(arrays, meta):
    a, b = arrays
    try:
        out = a + b
    except ValueError:
        raise TapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):  # a same-shape operand gets g itself; `backward` copies it if it must
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]

    return out, vjp


def _fw_mul(arrays, meta):
    a, b = arrays
    try:
        out = a * b
    except ValueError:
        raise TapeError(f"elementwise-multiply: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        return [_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)]

    return out, vjp


def _concat_rule(axis):
    """Forward rule joining 2-D operands along `axis`: 1 for columns, 0 for rows."""
    kind, equal = ("concat-last-axis", "row") if axis else ("stack-rows", "column")

    def forward(arrays, meta):
        if any(a.ndim != 2 for a in arrays) or len({a.shape[1 - axis] for a in arrays}) != 1:
            raise TapeError(f"{kind}: operands must be 2-D with equal {equal} counts, got shapes "
                            + " and ".join(str(a.shape) for a in arrays))
        out = np.concatenate(arrays, axis=axis)
        sizes = [a.shape[axis] for a in arrays]

        def vjp(g):
            pieces, at = [], 0
            for n in sizes:
                pieces.append(g[:, at:at + n] if axis else g[at:at + n])
                at += n
            return pieces

        return out, vjp

    return forward


def _fw_tanh(arrays, meta):
    out = np.tanh(arrays[0])
    return out, lambda g: [g * (1.0 - out * out)]


def _fw_sigmoid(arrays, meta):
    out = _stable_sigmoid(arrays[0])
    return out, lambda g: [g * out * (1.0 - out)]


def _fw_row_softmax(arrays, meta):
    x = arrays[0]
    if x.ndim != 2:
        raise TapeError(f"row-softmax: expected a 2-D operand, got shape {x.shape}")
    out = _row_softmax(x)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return [out * (g - dot)]

    return out, vjp


def _fw_embedding(arrays, meta):
    table = arrays[0]
    ids = np.asarray(meta["ids"], dtype=np.int64)
    if table.ndim != 2:
        raise TapeError(f"embedding-lookup: table must be 2-D, got shape {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise TapeError(f"embedding-lookup: id out of range for table shape {table.shape}")
    out = table[ids]

    return out, lambda g: [(ids, g)]  # deferred: the table's gradient is built by backward


def _fw_max_pool_rows(arrays, meta):
    x = arrays[0]
    if x.ndim != 2 or x.shape[0] < 1:
        raise TapeError(f"max-pool-over-rows: expected a non-empty 2-D operand, got shape {x.shape}")
    winners = np.argmax(x, axis=0)  # first maximal row per column: deterministic tie-break
    out = x[winners, np.arange(x.shape[1])][None, :]

    def vjp(g):
        dx = np.zeros_like(x)
        dx[winners, np.arange(x.shape[1])] = g[0]
        return [dx]

    return out, vjp


def _fw_dropout(arrays, meta):
    x = arrays[0]
    keep = meta["keep"]
    seed = meta["seed"]
    if not 0.0 < keep <= 1.0:
        raise TapeError(f"dropout: keep probability must be in (0, 1], got {keep}")
    if seed is None:
        raise TapeError("dropout: an explicit seed is required")
    rng = np.random.default_rng(seed)
    mask = (rng.random(x.shape) < keep) / keep
    out = x * mask
    return out, lambda g: [g * mask]


def _fw_scale(arrays, meta):
    c = float(meta["factor"])
    return arrays[0] * c, lambda g: [g * c]


def _fw_slice_rows(arrays, meta):
    x = arrays[0]
    start, stop = meta["start"], meta["stop"]
    if x.ndim != 2 or not 0 <= start < stop <= x.shape[0]:
        raise TapeError(f"slice-rows: rows [{start}:{stop}] invalid for shape {x.shape}")
    rows, flip = slice(start, stop), meta.get("transpose", False)
    return (x[rows].T if flip else x[rows]), lambda g: [(rows, g.T if flip else g)]


def _fw_sum(arrays, meta):
    x = arrays[0]
    return np.asarray(x.sum()), lambda g: [np.full(x.shape, float(g))]


def _fw_log(arrays, meta):
    x = arrays[0]
    out = np.log(x, where=x > 0, out=np.full_like(x, -np.inf))
    return out, lambda g: [g / x]


_FORWARD = {
    "matmul": _fw_matmul,
    "add": _fw_add,
    "elementwise-multiply": _fw_mul,
    "concat-last-axis": _concat_rule(1),
    "stack-rows": _concat_rule(0),
    "tanh": _fw_tanh,
    "sigmoid": _fw_sigmoid,
    "row-softmax": _fw_row_softmax,
    "embedding-lookup": _fw_embedding,
    "max-pool-over-rows": _fw_max_pool_rows,
    "dropout": _fw_dropout,
    "scalar-multiply": _fw_scale,
    "slice-rows": _fw_slice_rows,
    "sum": _fw_sum,
    "log": _fw_log,
}

PRIMITIVE_KINDS = tuple(_FORWARD)


class _Entry:
    __slots__ = ("kind", "inputs", "output", "vjp")

    def __init__(self, kind, inputs, output, vjp):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class Tape:
    """Ordered record of primitive applications, confined to one worker.

    With record=False the tape keeps no entries: it is for inference only.
    """

    def __init__(self, record=True):
        self.record = record
        self.entries = []
        self._mark = object()  # set on each output, so the tape knows what it produced
        self._checked = {}  # id -> each other tensor read; held, so its id stays unique

    def primitive(self, kind, inputs, **meta):
        """Apply a primitive and record it. `inputs` is a list of Tensors.

        An input this tape neither produced nor read before is type-checked
        on this first read, and finiteness-checked unless it is verified; the
        output is checked as it is produced. Inputs must not change in place
        afterwards while this tape is in use.
        """
        if kind not in _FORWARD:
            raise TapeError(f"unknown primitive kind {kind!r}")
        mark, checked = self._mark, self._checked
        arrays = []
        tracked = False
        for t in inputs:
            if getattr(t, "_born", None) is not mark and id(t) not in checked:
                if not isinstance(t, Tensor):
                    raise TapeError(f"{kind}: inputs must be Tensors, got {type(t).__name__}")
                if not t.verified and not _all_finite(t.data):
                    raise TapeError(f"{kind}: non-finite input value")
                checked[id(t)] = t
            arrays.append(t.data)
            tracked = tracked or t._tracked
        out_data, vjp = _FORWARD[kind](arrays, meta)
        if not _all_finite(out_data):
            raise TapeError(f"{kind}: produced a non-finite output")
        out = Tensor(out_data)
        out._tracked = tracked
        out._born = mark
        if self.record:
            self.entries.append(_Entry(kind, list(inputs), out, vjp))
        return out

    # convenience wrappers

    def matmul(self, a, b, transpose_a=False, transpose_b=False):
        return self.primitive("matmul", [a, b], transpose_a=transpose_a, transpose_b=transpose_b)

    def add(self, a, b):
        return self.primitive("add", [a, b])

    def mul(self, a, b):
        return self.primitive("elementwise-multiply", [a, b])

    def concat_cols(self, tensors):
        return self.primitive("concat-last-axis", list(tensors))

    def stack_rows(self, tensors):
        return self.primitive("stack-rows", list(tensors))

    def tanh(self, x):
        return self.primitive("tanh", [x])

    def sigmoid(self, x):
        return self.primitive("sigmoid", [x])

    def row_softmax(self, x):
        return self.primitive("row-softmax", [x])

    def embedding(self, table, ids):
        return self.primitive("embedding-lookup", [table], ids=list(ids))

    def max_pool_rows(self, x):
        return self.primitive("max-pool-over-rows", [x])

    def dropout(self, x, keep, seed):
        return self.primitive("dropout", [x], keep=keep, seed=seed)

    def scale(self, x, factor):
        return self.primitive("scalar-multiply", [x], factor=factor)

    def slice_rows(self, x, start, stop, transpose=False):
        return self.primitive("slice-rows", [x], start=start, stop=stop, transpose=transpose)

    def sum(self, x):
        return self.primitive("sum", [x])

    def log(self, x):
        return self.primitive("log", [x])


def backward(loss, tape, leaf_pieces=None):
    """Accumulate d(loss)/d(leaf) for every tracked leaf by reverse traversal.

    Returns the gradient map {leaf Tensor: gradient array}; leaves that did
    not participate in the loss are absent. Every returned array is new and
    owned by the caller: none is a view, and no two share memory.

    A deferred piece (see the forward rules) for an untracked input is
    dropped unbuilt. Every tracked tensor keeps its pieces: a non-leaf's are
    summed when the sweep reaches the entry that produced it, since its
    gradient must be complete there, and a leaf's after the sweep. Either
    sum is added to the tensor's dense contributions (a bias through `add`,
    say).

    Given a dict `leaf_pieces`, each leaf's matmul and embedding pieces are
    appended to `leaf_pieces[leaf]` unsummed and the map holds only dense
    parts, so one dict carried across a batch's tapes lets `sum_gradients`
    build each weight's gradient once per batch. A leaf's slice pieces are
    summed into its dense part, since they may view larger gradients that
    the batch would otherwise keep alive.
    """
    if not tape.record:
        raise TapeError("backward: the tape was built with record=False and holds no entries")
    if loss.data.size != 1:
        raise TapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    grads = {id(loss): np.ones_like(loss.data)}
    holder = {id(loss): loss}
    pieces = {}  # id(tensor) -> the tensor's deferred pieces

    for e in reversed(tape.entries):
        key = id(e.output)
        holder.pop(key, None)
        g = _plus_pieces(grads.pop(key, None), pieces.pop(key, None), e.output)
        if g is None:
            continue
        for t, gi in zip(e.inputs, e.vjp(g)):
            if not t._tracked:
                continue
            key = id(t)
            holder.setdefault(key, t)
            if type(gi) is tuple:
                pieces.setdefault(key, []).append(gi)
            elif key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
    out = {}
    for key, t in holder.items():
        if t.requires_grad:
            found = pieces.pop(key, [])
            if leaf_pieces is not None:
                leaf_pieces.setdefault(t, []).extend(p for p in found if type(p[0]) is not slice)
                found = [p for p in found if type(p[0]) is slice]
            g = grads.pop(key, None)
            if found:  # a piece sum is a new array
                out[t] = _plus_pieces(g, found, t)
            elif g is not None:  # a vjp may have handed it on, or viewed another array
                out[t] = g.copy()
    return out


def sum_gradients(leaf_pieces, dense):
    """{leaf: its collected pieces summed, plus `dense[leaf]`}, in `leaf_pieces` order."""
    return {t: _plus_pieces(dense.get(t), found, t) for t, found in leaf_pieces.items()}


def _plus_pieces(g, pieces, t):
    """Dense gradient `g` (or None) plus the sum of `pieces` for tensor `t`."""
    if not pieces:
        return g
    summed = _sum_pieces(pieces, t.data)
    return summed if g is None else np.add(summed, g, out=summed)


def _sum_pieces(pieces, like):
    """The dense sum of deferred pieces shaped like `like`.

    Matmul pieces are summed per transpose flag. A flag's pieces are stacked
    into one GEMM only when the stacked operands hold no more elements than
    one output per piece: stacking a few pieces with large operands, such as
    a weight's transpose, would copy them whole.
    """
    total = None
    for flag in (False, True):
        group = [p for p in pieces if len(p) == 3 and bool(p[2]) is flag]
        if len(group) > 1 and sum(p.size + q.size for p, q, _ in group) <= len(group) * like.size:
            group = [(np.concatenate([p for p, _, _ in group]),
                      np.concatenate([q for _, q, _ in group]), flag)]
        for p, q, _ in group:
            part = q.T @ p if flag else p.T @ q
            total = part if total is None else np.add(total, part, out=total)
    if total is None:  # only lookup and slice pieces
        total = np.zeros_like(like)
    looks = [p for p in pieces if len(p) == 2 and type(p[0]) is not slice]
    if looks:
        np.add.at(total, np.concatenate([p[0] for p in looks]),
                  np.concatenate([p[1] for p in looks]))
    for rows, g in (p for p in pieces if type(p[0]) is slice):
        total[rows] += g  # a basic slice: many times faster than np.add.at on wide rows
    return total


def grad_check(build_loss, params, step=1e-5):
    """Compare tape gradients against central finite differences.

    `build_loss(params)` must deterministically return `(loss Tensor, Tape)`.
    Returns the max over all parameter coordinates of
    |g_auto - g_fd| / max(1e-8, |g_auto| + |g_fd|). Each coordinate is moved
    by +-step in place and restored, so a verified parameter stays finite.

    The determinism check and the tape gradients run in the caller. The
    perturbed forwards are split across one forked worker process per CPU
    this process may use, so `build_loss` may run in a worker and the caller
    does not see its side effects. With one CPU, or without the `fork` start
    method, they run in the caller. An error in a worker is re-raised here;
    a worker that dies raises `BrokenProcessPool`, a RuntimeError.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"grad_check: step must be in (0, 1e-3], got {step}")
    loss_a, tape = build_loss(params)
    loss_b, _ = build_loss(params)
    if not np.array_equal(loss_a.data, loss_b.data):
        raise TapeError("grad_check: build_loss is not deterministic")
    gmap = backward(loss_a, tape)

    coords = []
    for p in params:
        auto = gmap.get(p)
        auto_flat = np.zeros(p.data.size) if auto is None else auto.ravel()
        flat = p.data.ravel()
        coords.extend((flat, auto_flat, i) for i in range(flat.size))

    def loss_value():
        value, _ = build_loss(params)
        return float(value.data)

    def worst_of(share):
        worst = 0.0
        for flat, auto_flat, i in share:
            orig = flat[i]
            try:
                flat[i] = orig + step
                up = loss_value()
                flat[i] = orig - step
                down = loss_value()
            finally:
                flat[i] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(auto_flat[i] - fd) / max(1e-8, abs(auto_flat[i]) + abs(fd))
            worst = max(worst, rel)
        return worst

    workers = min(_usable_cpus(), len(coords))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return worst_of(coords)
    # Under fork the initializer reaches each worker unpickled, and each
    # worker perturbs its own copy of the real parameters.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_share_fn,
                             initargs=(lambda k: worst_of(coords[k::workers]),)) as pool:
        return max(pool.map(_run_share, range(workers)))


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _adopt_share_fn(fn):
    global _share_fn  # set in a forked grad_check worker, never in the caller
    _share_fn = fn


def _run_share(k):
    return _share_fn(k)


# Checkpoint files: little-endian binary, one record per named tensor.

_CKPT_MAGIC = b"UQGCKPT\x00"
CHECKPOINT_VERSION = 2  # the record format is version 1's; `model` reads both


def save_checkpoint(path, named_tensors):
    """Write (name, shape, float64 values) records from each array's buffer, in mapping order."""
    with atomic_write(path, binary=True) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(named_tensors)))
        for name, tensor in named_tensors.items():
            raw = name.encode("utf-8")
            data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor, dtype=np.float64)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack(f"<I{data.ndim}Q", data.ndim, *data.shape))
            fh.write(np.ascontiguousarray(data, dtype="<f8"))


def load_checkpoint(path):
    """Read a checkpoint back as (its header's format version, an ordered
    {name: float64 array} mapping), each record straight into a fresh array.

    Every length is checked against the bytes left before anything is read or
    allocated: a truncated or corrupt file raises CheckpointError, never a
    struct, buffer or memory error.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size - len(_CKPT_MAGIC)
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")

        def take(n, what):
            nonlocal left
            if n > left:
                raise CheckpointError(f"{path}: truncated in {what} at byte {fh.tell()} "
                                      f"(needs {n} more bytes, {left} left)")
            left -= n
            return n

        version, count = struct.unpack("<II", fh.read(take(8, "the header")))
        if version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(f"{path}: checkpoint format version {version}, "
                                  f"this build reads versions 1 and {CHECKPOINT_VERSION}")
        out = {}
        for k in range(count):
            what = f"record {k + 1} of {count}"
            (name_len,) = struct.unpack("<I", fh.read(take(4, what)))
            try:
                name = fh.read(take(name_len, what)).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: {what} has a name that is not UTF-8") from None
            if name in out:
                raise CheckpointError(f"{path}: {what} repeats the name {name!r}")
            (ndim,) = struct.unpack("<I", fh.read(take(4, what)))
            shape = struct.unpack(f"<{ndim}Q", fh.read(take(8 * ndim, what)))
            take(8 * math.prod(shape), what)
            try:
                out[name] = np.empty(shape, dtype="<f8")
            except ValueError:  # no values, but a dimension past the address space
                raise CheckpointError(f"{path}: {what} has impossible shape {shape}") from None
            fh.readinto(out[name])
        if left:
            raise CheckpointError(f"{path}: trailing bytes after the last record")
    return version, out

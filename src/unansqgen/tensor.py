"""Minimal reverse-mode autodiff over dense float64 arrays.

Every numeric operation the generation models need is a recorded primitive
on a Tape. Calling a primitive validates shapes, computes the forward value
with numpy, and records a vector-Jacobian closure so `backward` can
accumulate gradients by reverse traversal.

Weight gradients are summed once per tape: a matmul's `b` and an embedding
table get deferred pieces instead of a dense gradient per use, and `backward`
sums each leaf's pieces after the sweep. That order of summation differs from
one dense gradient per use, so gradients, and trained parameters, can move in
the last place; the loss does not.

Finiteness is checked where a value is born: a tape checks each output as it
is produced, and each tensor it did not produce (a leaf, or an output of
another tape) the first time it reads it, never again. A leaf must therefore
not change in place while a tape that has read it is still recording.
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

    `data` is a shaped numpy array; `values` exposes the row-major flat view.
    `backward` returns gradients for the leaf tensors created with
    requires_grad=True; tensors produced by tape primitives track gradient
    flow automatically.
    """

    __slots__ = ("data", "requires_grad", "name", "_tracked")

    def __init__(self, data, requires_grad=False, name=None):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._tracked = self.requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def values(self):
        return self.data.ravel()

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        return f"<Tensor shape={self.data.shape}{label} requires_grad={self.requires_grad}>"


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


def parameter(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
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
# is a dense array or a deferred piece: (aop, g, transpose_b) for a matmul's
# `b`, standing for aop.T @ g (transposed if transpose_b), and (ids, g) for an
# embedding table, standing for g's rows added at `ids`.

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
        da_op = g @ bop.T
        return [da_op.T if ta else da_op, (aop, g, tb)]  # b's gradient is deferred

    return out, vjp


def _fw_add(arrays, meta):
    a, b = arrays
    try:
        out = a + b
    except ValueError:
        raise TapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):
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
    out = x[start:stop]

    def vjp(g):
        dx = np.zeros_like(x)
        dx[start:stop] = g
        return [dx]

    return out, vjp


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
    """Ordered record of primitive applications, confined to one worker."""

    def __init__(self):
        self.entries = []
        self._checked = set()  # ids of tensors known finite; each is held by an entry

    def primitive(self, kind, inputs, **meta):
        """Apply a primitive and record it. `inputs` is a list of Tensors.

        An input this tape has not seen before is type- and finiteness-checked
        on this first read; the output is checked as it is produced. Inputs
        must not change in place afterwards while this tape is recording.
        """
        if kind not in _FORWARD:
            raise TapeError(f"unknown primitive kind {kind!r}")
        checked = self._checked
        unseen = []
        arrays = []
        tracked = False
        for t in inputs:
            if id(t) not in checked:
                if not isinstance(t, Tensor):
                    raise TapeError(f"{kind}: inputs must be Tensors, got {type(t).__name__}")
                if not _all_finite(t.data):
                    raise TapeError(f"{kind}: non-finite input value")
                unseen.append(t)
            arrays.append(t.data)
            tracked = tracked or t._tracked
        out_data, vjp = _FORWARD[kind](arrays, meta)
        if not _all_finite(out_data):
            raise TapeError(f"{kind}: produced a non-finite output")
        out = Tensor(out_data)
        out._tracked = tracked
        self.entries.append(_Entry(kind, list(inputs), out, vjp))
        # Only now does an entry hold these tensors, so their ids stay unique.
        checked.update(map(id, unseen))
        checked.add(id(out))
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

    def slice_rows(self, x, start, stop):
        return self.primitive("slice-rows", [x], start=start, stop=stop)

    def sum(self, x):
        return self.primitive("sum", [x])

    def log(self, x):
        return self.primitive("log", [x])


def backward(loss, tape):
    """Accumulate d(loss)/d(leaf) for every tracked leaf by reverse traversal.

    Returns the gradient map {leaf Tensor: gradient array}; leaves that did
    not participate in the loss are absent. Every returned array is new and
    owned by the caller: none is a view, and no two share memory.

    A deferred piece (see the forward rules) is made dense at once for a
    tracked non-leaf and dropped for an untracked input. A leaf's pieces are
    kept until the sweep ends, then summed in one GEMM per transpose flag over
    the stacked rows and one `np.add.at` over the concatenated ids, and added
    to the leaf's dense contributions (a bias through `add`, say).
    """
    if loss.data.size != 1:
        raise TapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    grads = {id(loss): np.ones_like(loss.data)}
    holder = {id(loss): loss}
    pieces = {}  # id(leaf) -> the leaf's deferred pieces
    for e in reversed(tape.entries):
        g = grads.pop(id(e.output), None)
        holder.pop(id(e.output), None)
        if g is None:
            continue
        for t, gi in zip(e.inputs, e.vjp(g)):
            if not t._tracked:
                continue
            key = id(t)
            if type(gi) is tuple:
                if t.requires_grad:
                    pieces.setdefault(key, []).append(gi)
                    holder.setdefault(key, t)
                    continue
                gi = _sum_pieces([gi], t.data)  # complete before the non-leaf's own entry
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
                holder.setdefault(key, t)
    out = {}
    for key, t in holder.items():
        if not t.requires_grad:
            continue
        g = grads.get(key)
        if key in pieces:
            total = _sum_pieces(pieces[key], t.data)
            g = total if g is None else np.add(total, g, out=total)
        out[t] = g.copy() if g.base is not None else g
    return out


def _sum_pieces(pieces, like):
    """The dense sum of deferred pieces: a GEMM per transpose flag, one scatter-add."""
    total = None
    for tb in (False, True):
        group = [p for p in pieces if len(p) == 3 and bool(p[2]) is tb]
        if group:
            aops = np.concatenate([p[0] for p in group])
            gs = np.concatenate([p[1] for p in group])
            part = gs.T @ aops if tb else aops.T @ gs
            total = part if total is None else np.add(total, part, out=total)
    looks = [p for p in pieces if len(p) == 2]
    if looks:
        if total is None:
            total = np.zeros_like(like)
        np.add.at(total, np.concatenate([p[0] for p in looks]),
                  np.concatenate([p[1] for p in looks]))
    return total


def grad_check(build_loss, params, step=1e-5):
    """Compare tape gradients against central finite differences.

    `build_loss(params)` must deterministically return `(loss Tensor, Tape)`.
    Returns the max over all parameter coordinates of
    |g_auto - g_fd| / max(1e-8, |g_auto| + |g_fd|).

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
CHECKPOINT_VERSION = 1


def save_checkpoint(path, named_tensors):
    """Write (name, shape, float64 values) records; order follows the mapping."""
    with atomic_write(path, binary=True) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(named_tensors)))
        for name, tensor in named_tensors.items():
            raw = name.encode("utf-8")
            data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor, dtype=np.float64)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back as an ordered {name: float64 array} mapping.

    Every read is bounds-checked: a truncated or corrupt file raises
    CheckpointError, never a struct or buffer error.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    offset = 8

    def take(n, what):
        nonlocal offset
        if n > len(blob) - offset:
            raise CheckpointError(f"{path}: truncated in {what} at byte {offset} "
                                  f"(needs {n} more bytes, {len(blob) - offset} left)")
        offset += n
        return offset - n

    version, count = struct.unpack_from("<II", blob, take(8, "the header"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format version {version}, this build reads version {CHECKPOINT_VERSION}")
    out = {}
    for k in range(count):
        what = f"record {k + 1} of {count}"
        (name_len,) = struct.unpack_from("<I", blob, take(4, what))
        start = take(name_len, what)
        try:
            name = blob[start:start + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} has a name that is not UTF-8") from None
        (ndim,) = struct.unpack_from("<I", blob, take(4, what))
        shape = struct.unpack_from(f"<{ndim}Q", blob, take(8 * ndim, what))
        size = math.prod(shape)
        start = take(8 * size, what)
        values = np.frombuffer(blob, dtype="<f8", count=size, offset=start).astype(np.float64)
        out[name] = values.reshape(shape)
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after the last record")
    return out

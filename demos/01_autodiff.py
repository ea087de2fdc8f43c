"""A tour of the tape: build a computation, differentiate it, check it.

Every model in this package runs on the same small reverse-mode engine:
operations append records to a Tape, and backward() walks the records in
reverse, accumulating vector-Jacobian products into leaf gradients.
"""

import os
import tempfile

import numpy as np

from unansqgen.tensor import (Tape, Tensor, backward, grad_check,
                              load_checkpoint, save_checkpoint)

rng = np.random.default_rng(7)

# a two-layer tanh network, the classic smoke test
W1 = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True, name="W1")
b1 = Tensor(rng.uniform(-1, 1, (1, 5)), requires_grad=True, name="b1")
W2 = Tensor(rng.uniform(-1, 1, (5, 5)), requires_grad=True, name="W2")
x = Tensor(rng.uniform(-1, 1, (1, 4)))

tape = Tape()
hidden = tape.tanh(tape.add(tape.matmul(x, W1), b1))
out = tape.matmul(hidden, W2)
loss = tape.sum(tape.mul(out, out))
print(f"loss = {float(loss.data):.6f} from {len(tape.entries)} taped primitives")

grads = backward(loss, tape)
for tensor in (W1, b1, W2):
    print(f"  d loss / d {tensor.name}: shape {grads[tensor].shape}, "
          f"|g| max {np.abs(grads[tensor]).max():.4f}")

# the analytic gradients agree with central finite differences


def build_loss(_params):
    t = Tape()
    h = t.tanh(t.add(t.matmul(x, W1), b1))
    o = t.matmul(h, W2)
    return t.sum(t.mul(o, o)), t


worst = grad_check(build_loss, [W1, b1, W2], step=1e-5)
print(f"finite-difference check: max relative error {worst:.3e}")

# parameters travel as a binary checkpoint and come back bit-identical
arrays = {"W1": W1.data, "b1": b1.data, "W2": W2.data}
with tempfile.TemporaryDirectory(prefix="unansqgen_demo_") as root:
    path = os.path.join(root, "demo_autodiff.ckpt")
    save_checkpoint(path, arrays)
    _, loaded = load_checkpoint(path)
identical = all(np.array_equal(arrays[k], loaded[k]) for k in arrays)
print(f"checkpoint round-trip bit-identical: {identical}")

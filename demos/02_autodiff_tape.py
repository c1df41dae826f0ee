#!/usr/bin/env python3
"""The reverse-mode tape underneath the models.

Tensors are float64 numpy arrays; tracking starts at Graph.leaf.  Ops on
plain constants stay ordinary numpy, ops touching a tracked tensor are
recorded, and backward() walks the tape once in reverse creation order,
so gradients are deterministic down to the bit.
"""

import numpy as np

from tpgn import Graph, backward, finite_diff_check
from tpgn import autodiff as ad

# --- a tiny expression ------------------------------------------------------
g = Graph()
x = g.leaf(np.array([1.0, 2.0, 3.0]))
w = g.leaf(np.array([[0.5, -0.25, 0.1]]))
y = ad.reduce_sum(ad.tanh(ad.matmul(w, ad.reshape(x, (3, 1)))))
print("forward value:", y.item())
grads = backward(y)
print("d y / d x =", grads[x])
print("d y / d w =", grads[w])
print("tape length:", len(g), "nodes; peak live bytes of its arrays and gradients:",
      g.peak_bytes)

# --- gradients checked against central differences -------------------------
def f(t):
    return ad.reduce_sum(ad.sigmoid(ad.mul(t, t)))

err = finite_diff_check(f, np.array([0.3, -0.8, 1.4]))
print("\nfinite-difference max relative error for sum(sigmoid(t*t)):", err)

# --- determinism ------------------------------------------------------------
def grad_once():
    graph = Graph()
    a = graph.leaf(np.linspace(-1, 1, 8).reshape(4, 2))
    b = graph.leaf(np.full((4, 2), 0.5))
    loss = ad.reduce_mean(ad.mul(ad.add(a, b), ad.sub(a, b)))
    return backward(loss)[a]

first, second = grad_once(), grad_once()
print("two identical backward passes bitwise equal:",
      np.array_equal(first, second))

# --- fan-out accumulates in fixed order -------------------------------------
g2 = Graph()
v = g2.leaf(np.array([2.0]))
tripled = ad.concat([v, v, v], axis=0)
loss = ad.reduce_sum(ad.mul(tripled, tripled))
print("d/dv of sum over three shared copies of v^2:", backward(loss)[v],
      "(= 3 * 2v)")

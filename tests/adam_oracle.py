"""Reference Adam: the per-parameter update loop that `numcore.adam_step` replaced.

It keeps each parameter's value and moments as separate arrays in plain
dicts and updates them one parameter at a time, in name order, with the
arithmetic of Kingma & Ba (arXiv:1412.6980).  `numcore.adam_step` must give
the same bits for every value and moment.
"""

from __future__ import annotations

import numpy as np


class ReferenceAdam:
    """Values and Adam moments of named arrays, updated one parameter at a time."""

    def __init__(self, values: dict[str, np.ndarray], steps: int = 0, m=None, v=None):
        self.values = {n: np.array(a, dtype=np.float64) for n, a in values.items()}
        self.m = {n: np.array(m[n]) if m else np.zeros_like(a) for n, a in self.values.items()}
        self.v = {n: np.array(v[n]) if v else np.zeros_like(a) for n, a in self.values.items()}
        self.steps = steps

    def step(self, grads: dict[str, np.ndarray], lr=1e-3, betas=(0.9, 0.999), eps=1e-8) -> None:
        beta1, beta2 = betas
        self.steps += 1
        t = self.steps
        for name in sorted(self.values):
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m[...] = beta1 * m + (1.0 - beta1) * g
            v[...] = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            self.values[name] = self.values[name] - lr * m_hat / (np.sqrt(v_hat) + eps)

"""Finite-difference gradient verification, and zeroing gradients outside
an optimizer.

Central differences:  dL/dw  ~=  (L(w+h) - L(w-h)) / (2h)

The loss callable must be deterministic across repeated calls (re-seed any
stochastic parts like dropout masks inside it), otherwise the quotient
measures noise, not the derivative.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from popgate.nn.layers import Param, Weight


def zero_grads(params: Iterable[Param]) -> None:
    """Zero each param's gradient, as an optimizer's `zero_grad` does for
    the params it holds: a `Weight` whose gradient is deferred is deferred
    again (its recorded products dropped), and any other gradient is filled
    with zeros in place."""
    for p in params:
        if isinstance(p, Weight) and p.grad is None:
            p.defer()
        else:
            p.grad[...] = 0.0


def numerical_gradient(
    loss_fn: Callable[[], float], param: Param, step: float = 1e-5
) -> np.ndarray:
    grad = np.zeros_like(param.value)
    flat_v = param.value.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_v.size):
        orig = flat_v[i]
        flat_v[i] = orig + step
        up = loss_fn()
        flat_v[i] = orig - step
        down = loss_fn()
        flat_v[i] = orig
        flat_g[i] = (up - down) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over elements of |a - n| / max(1e-6, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def check_gradients(
    loss_and_backward: Callable[[], float],
    params: Sequence[Param],
    loss_only: Callable[[], float],
    step: float = 1e-5,
) -> dict[str, float]:
    """Compare analytic gradients against central differences.

    `loss_and_backward` must zero grads, run forward+backward, and return the
    loss; `loss_only` must evaluate the same loss without touching grads.
    Returns {param name: max relative error}.
    """
    loss_and_backward()
    analytic = {p.name: p.gradient().copy() for p in params}
    errors = {}
    for p in params:
        numeric = numerical_gradient(loss_only, p, step=step)
        errors[p.name] = max_relative_error(analytic[p.name], numeric)
    return errors

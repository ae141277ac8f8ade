"""Forward-mode jets: value, gradient and Hessian of scalars.

A ``Jet2`` carries the value of a scalar quantity together with its exact
first and (optionally) second derivatives with respect to ``m`` active
variables.  Arithmetic implements the chain and product rules with no
truncation beyond order two, so curvature-grade second derivatives come
out exact up to rounding.

Values may be scalars or arrays of any leading shape; derivative data
broadcasts along the trailing variable axes (``grad`` has shape
``value.shape + (m,)``, ``hess`` has ``value.shape + (m, m)``).  That is
what lets a whole batch of sample points be pushed through an expression
tree in one pass.

Hessians are symmetric bit-for-bit: every rule below assembles the
second-order term from symmetric pieces only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet2", "JetDomainError", "as_jet2"]


class JetDomainError(ValueError):
    """A function was evaluated outside its real domain."""


def _outer_sym(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_i b_j + b_i a_j; symmetric by IEEE commutativity of + and *.
    t = np.einsum("...i,...j->...ij", a, b)
    return t + np.swapaxes(t, -1, -2)


class Jet2:
    """Truncated second-order Taylor data of a scalar.

    ``hess`` may be ``None`` for internal first-order evaluations (used
    where only Christoffel symbols are needed); public entry points
    always populate it.  Instances are never mutated after construction.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    @property
    def nvars(self) -> int:
        return self.grad.shape[-1]

    @classmethod
    def constant(cls, value, nvars: int, order: int = 2) -> "Jet2":
        v = np.asarray(value, dtype=float)
        grad = np.zeros(v.shape + (nvars,))
        hess = None if order < 2 else np.zeros(v.shape + (nvars, nvars))
        return cls(v, grad, hess)

    @classmethod
    def variable(cls, value, index: int, nvars: int, order: int = 2) -> "Jet2":
        v = np.asarray(value, dtype=float)
        grad = np.zeros(v.shape + (nvars,))
        grad[..., index] = 1.0
        hess = None if order < 2 else np.zeros(v.shape + (nvars, nvars))
        return cls(v, grad, hess)

    # -- broadcasting helpers -------------------------------------------

    def _v1(self) -> np.ndarray:
        return self.value[..., None]

    def _v2(self) -> np.ndarray:
        return self.value[..., None, None]

    def _lift(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, float)) or (
            isinstance(other, np.ndarray) and other.dtype.kind in "fi"
        ):
            order = 1 if self.hess is None else 2
            return Jet2.constant(other, self.nvars, order)
        return None

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(self.value + other, self.grad, self.hess)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        h = None if self.hess is None or o.hess is None else self.hess + o.hess
        return Jet2(self.value + o.value, self.grad + o.grad, h)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(self.value - other, self.grad, self.hess)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        h = None if self.hess is None or o.hess is None else self.hess - o.hess
        return Jet2(self.value - o.value, self.grad - o.grad, h)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(
                self.value * other,
                self.grad * other,
                None if self.hess is None else self.hess * other,
            )
        o = self._lift(other)
        if o is None:
            return NotImplemented
        value = self.value * o.value
        grad = self.grad * o._v1() + o.grad * self._v1()
        hess = None
        if self.hess is not None and o.hess is not None:
            hess = (
                self.hess * o._v2()
                + o.hess * self._v2()
                + _outer_sym(self.grad, o.grad)
            )
        return Jet2(value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if np.any(o.value == 0.0):
            raise JetDomainError("division by zero")
        q = self.value / o.value
        grad = (self.grad - q[..., None] * o.grad) / o._v1()
        hess = None
        if self.hess is not None and o.hess is not None:
            hess = (
                self.hess - q[..., None, None] * o.hess - _outer_sym(grad, o.grad)
            ) / o._v2()
        return Jet2(q, grad, hess)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    # -- elementary functions --------------------------------------------

    def _chain(self, f0, f1, f2) -> "Jet2":
        grad = f1[..., None] * self.grad
        hess = None
        if self.hess is not None:
            hess = f1[..., None, None] * self.hess + 0.5 * f2[
                ..., None, None
            ] * _outer_sym(self.grad, self.grad)
        return Jet2(f0, grad, hess)

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._chain(c, -s, -c)

    def tan(self):
        t = np.tan(self.value)
        d = 1.0 + t * t
        return self._chain(t, d, 2.0 * t * d)

    def sinh(self):
        return self._chain(np.sinh(self.value), np.cosh(self.value), np.sinh(self.value))

    def cosh(self):
        return self._chain(np.cosh(self.value), np.sinh(self.value), np.cosh(self.value))

    def tanh(self):
        t = np.tanh(self.value)
        d = 1.0 - t * t
        return self._chain(t, d, -2.0 * t * d)

    def exp(self):
        e = np.exp(self.value)
        return self._chain(e, e, e)

    def log(self):
        if np.any(self.value <= 0.0):
            raise JetDomainError("log of non-positive value")
        inv = 1.0 / self.value
        return self._chain(np.log(self.value), inv, -inv * inv)

    def sqrt(self):
        # derivatives need a strictly positive argument
        if np.any(self.value <= 0.0):
            raise JetDomainError("sqrt of non-positive value")
        s = np.sqrt(self.value)
        f1 = 0.5 / s
        return self._chain(s, f1, -0.5 * f1 / self.value)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet2(value={self.value!r}, grad={self.grad!r})"


def as_jet2(out, shape, nvars: int, order: int = 2) -> Jet2:
    """An expression evaluation result as a ``Jet2``: a tree with no
    variable in it evaluates to a plain number, which becomes a constant
    jet broadcast to the batch ``shape``."""
    if isinstance(out, Jet2):
        return out
    return Jet2.constant(np.broadcast_to(np.asarray(out, float), shape), nvars, order)

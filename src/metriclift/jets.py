"""Forward-mode jets: value, gradient and Hessian of scalars.

A ``Jet2`` carries the value of a scalar quantity together with its exact
first and (optionally) second derivatives.  Arithmetic implements the
chain and product rules with no truncation beyond order two, so
curvature-grade second derivatives come out exact up to rounding.

Derivatives are taken only in the variables a jet depends on, its
``support``: the sorted tuple of variable indices.  ``grad`` has shape
``value.shape + (k,)`` and ``hess`` has ``value.shape + (k, k)`` over
those k variables; every other derivative is an exact zero that is never
stored.  A binary rule aligns its operands by widening both to the union
of their supports (zero-padding, nothing when the supports are equal);
a chain rule keeps its operand's support.  A plain-number operand of a
rule is a zero-width constant, with support ``()``.  A full-width jet is
one whose support is every variable: the public entry points
(:meth:`Jet2.variable`, :meth:`Jet2.constant`, :func:`as_jet2`) give full
width, so ``grad[..., k]`` is the derivative in variable ``k``, while
:meth:`Jet2.coordinate` seeds a one-variable jet for evaluations that
keep each result on its own support.

Values may be scalars or arrays of any leading shape; derivative data
broadcasts along the trailing variable axes.  That is what lets a whole
batch of sample points be pushed through an expression tree in one pass.

Hessians are symmetric bit-for-bit: every rule below assembles the
second-order term from symmetric pieces only, and widening places a
symmetric block among zeros.
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
    always populate it.  ``support`` defaults to every column of
    ``grad``.  Instances are never mutated after construction.
    """

    __slots__ = ("value", "grad", "hess", "support")

    def __init__(self, value, grad, hess, support=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)
        self.support = tuple(range(self.grad.shape[-1])) if support is None else support

    @classmethod
    def constant(cls, value, nvars: int, order: int = 2) -> "Jet2":
        return cls._constant(value, order).widened(tuple(range(nvars)))

    @classmethod
    def variable(cls, value, index: int, nvars: int, order: int = 2) -> "Jet2":
        return cls.coordinate(value, index, order).widened(tuple(range(nvars)))

    @classmethod
    def coordinate(cls, value, index: int, order: int = 2) -> "Jet2":
        """Variable ``index`` as a one-variable jet, support ``(index,)``."""
        v = np.asarray(value, dtype=float)
        hess = None if order < 2 else np.zeros(v.shape + (1, 1))
        return cls(v, np.ones(v.shape + (1,)), hess, (index,))

    @classmethod
    def _constant(cls, value, order: int) -> "Jet2":
        v = np.asarray(value, dtype=float)
        hess = None if order < 2 else np.zeros(v.shape + (0, 0))
        return cls(v, np.zeros(v.shape + (0,)), hess, ())

    def _pad(self, support):
        """``(grad, hess)`` over ``support``, a superset of this jet's
        support: zero columns for the variables it does not depend on."""
        if support == self.support:
            return self.grad, self.hess
        k = len(support)
        grad = np.zeros(self.grad.shape[:-1] + (k,))
        hess = None if self.hess is None else np.zeros(self.hess.shape[:-2] + (k, k))
        if self.support:
            pos = np.array([support.index(v) for v in self.support])
            grad[..., pos] = self.grad
            if hess is not None:
                hess[..., pos[:, None], pos] = self.hess
        return grad, hess

    def widened(self, support) -> "Jet2":
        """This jet over ``support``, a superset of its own."""
        return Jet2(self.value, *self._pad(support), support)

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
            return Jet2._constant(other, 1 if self.hess is None else 2)
        return None

    def _aligned(self, o: "Jet2"):
        """``(support, grad, hess, o.grad, o.hess)`` over the union of
        both supports."""
        if self.support == o.support:
            return self.support, self.grad, self.hess, o.grad, o.hess
        support = tuple(sorted(set(self.support) | set(o.support)))
        return (support, *self._pad(support), *o._pad(support))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(self.value + other, self.grad, self.hess, self.support)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        s, ga, ha, gb, hb = self._aligned(o)
        h = None if ha is None or hb is None else ha + hb
        return Jet2(self.value + o.value, ga + gb, h, s)

    __radd__ = __add__

    def __neg__(self):
        h = None if self.hess is None else -self.hess
        return Jet2(-self.value, -self.grad, h, self.support)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(self.value - other, self.grad, self.hess, self.support)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        s, ga, ha, gb, hb = self._aligned(o)
        h = None if ha is None or hb is None else ha - hb
        return Jet2(self.value - o.value, ga - gb, h, s)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet2(
                self.value * other,
                self.grad * other,
                None if self.hess is None else self.hess * other,
                self.support,
            )
        o = self._lift(other)
        if o is None:
            return NotImplemented
        s, ga, ha, gb, hb = self._aligned(o)
        value = self.value * o.value
        grad = ga * o._v1() + gb * self._v1()
        hess = None
        if ha is not None and hb is not None:
            hess = ha * o._v2() + hb * self._v2() + _outer_sym(ga, gb)
        return Jet2(value, grad, hess, s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if np.any(o.value == 0.0):
            raise JetDomainError("division by zero")
        s, ga, ha, gb, hb = self._aligned(o)
        q = self.value / o.value
        grad = (ga - q[..., None] * gb) / o._v1()
        hess = None
        if ha is not None and hb is not None:
            hess = (ha - q[..., None, None] * hb - _outer_sym(grad, gb)) / o._v2()
        return Jet2(q, grad, hess, s)

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
        return Jet2(f0, grad, hess, self.support)

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
    """An expression evaluation result as a full-width ``Jet2`` over
    ``nvars`` variables: a tree with no variable in it evaluates to a
    plain number, which becomes a constant jet broadcast to the batch
    ``shape``."""
    if isinstance(out, Jet2):
        return out.widened(tuple(range(nvars)))
    return Jet2.constant(np.broadcast_to(np.asarray(out, float), shape), nvars, order)

"""Truncated multivariate Taylor arithmetic ("jets") and derivative extraction.

A jet stores the Taylor coefficients of a smooth expression at a base point,
up to a fixed total order, with respect to a declared set of seed directions.
Arithmetic on jets propagates coefficients exactly, so after one ordinary
evaluation of an expression every mixed directional derivative up to the
truncation order can be read off.  The tests check them against a
central-difference oracle with Richardson extrapolation, which lives with
the other reference routes in tests/oracles.py.

The coefficient array may carry a trailing batch axis, shape (ncoef, B): one
evaluation then serves B base points (vector-mode Taylor arithmetic, Griewank
& Walther, *Evaluating Derivatives*, ch. 13).  A single point is the batch
shape () case of the same arithmetic, so every batch column is bit-identical
to the evaluation at its point alone, and a domain check rejects the whole
batch when any column fails it.

A jet space may cap the total degree of its leading seeds, so derivatives
that are never read are never carried (the sparse truncation of the same
chapter).  The layout keeps the uncapped order, so each retained coefficient
is the uncapped one bit for bit; reading above the cap raises ValueError.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EvaluationDomainError

# The Ricci tensor consumes six total derivative orders of F^2; keep a little
# headroom for oracles that go deeper.
MAX_JET_ORDER = 10


def _degree_indices(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in _degree_indices(nvars - 1, degree - head):
            yield (head,) + tail


class JetSpace:
    """Coefficient layout and cached operation tables for one jet space.

    Multi-indices are listed degree by degree (lexicographic within a
    degree).  A cap keeps only the multi-indices whose first `lead` entries
    sum to at most `cap`, in the same order: the derivatives of total degree
    above `cap` along the leading seeds are never carried.  For one cap the
    coefficient vector of any lower order is a prefix of the higher-order
    one, so truncation is a slice; truncation to a lower cap gathers the
    retained coefficients.  The dropped multi-indices form an ideal, so each
    retained coefficient of a product sums the same terms in the same order
    as on the uncapped space, and its bits do not depend on the cap.
    """

    def __init__(self, nvars: int, order: int, lead: int = 0, cap: int | None = None):
        self.nvars = nvars
        self.order = order
        self.lead = lead
        self.cap = cap
        indices: list[tuple[int, ...]] = []
        for deg in range(order + 1):
            indices.extend(
                alpha for alpha in _degree_indices(nvars, deg) if cap is None or sum(alpha[:lead]) <= cap
            )
        self.indices = tuple(indices)
        self.index_of = {alpha: i for i, alpha in enumerate(self.indices)}
        self.ncoef = len(self.indices)
        self._mul = None
        self._batched_mul: dict[int, np.ndarray] = {}
        self._partials: dict[int, tuple] = {}
        self._meets: dict[JetSpace, JetSpace] = {}
        self._gathers: dict[JetSpace, slice | np.ndarray] = {}

    def constant(self, c) -> "Jet":
        """Constant jet; an array c of shape (B,) gives a batch of B constants."""
        coef = np.zeros((self.ncoef,) + getattr(c, "shape", ()))
        coef[0] = c
        return Jet(self, coef)

    def variable(self, v: int, value) -> "Jet":
        """Jet of value + xi_v, where xi_v is the v-th seed direction; value may be a (B,) array."""
        coef = np.zeros((self.ncoef,) + getattr(value, "shape", ()))
        coef[0] = value
        if self.order >= 1:
            idx = self.index_of.get(tuple(int(u == v) for u in range(self.nvars)))
            if idx is None:
                raise ValueError(f"seed {v} outside jet space")
            coef[idx] = 1.0
        return Jet(self, coef)

    def _mul_table(self):
        if self._mul is None:
            I, J, K = [], [], []
            for i, a in enumerate(self.indices):
                da = sum(a)
                for j, b in enumerate(self.indices):
                    if da + sum(b) <= self.order:
                        k = self.index_of.get(tuple(u + v for u, v in zip(a, b)))
                        if k is not None:
                            I.append(i)
                            J.append(j)
                            K.append(k)
            self._mul = (
                np.asarray(I, dtype=np.intp),
                np.asarray(J, dtype=np.intp),
                np.asarray(K, dtype=np.intp),
            )
        return self._mul

    def _batched_mul_index(self, batch: int) -> np.ndarray:
        """Flattened output index K*B + b of every (product term, batch column)."""
        idx = self._batched_mul.get(batch)
        if idx is None:
            K = self._mul_table()[2]
            idx = (K[:, None] * batch + np.arange(batch)).ravel()
            self._batched_mul[batch] = idx
        return idx

    def _partial_table(self, v: int):
        tab = self._partials.get(v)
        if tab is None:
            cap = self.cap
            if cap is not None and v < self.lead:
                if cap == 0:
                    raise ValueError(f"derivative along seed {v} outside jet space")
                cap -= 1
            lower = jet_space(self.nvars, self.order - 1, self.lead, cap)
            src = np.empty(lower.ncoef, dtype=np.intp)
            fac = np.empty(lower.ncoef)
            for t, alpha in enumerate(lower.indices):
                bumped = list(alpha)
                bumped[v] += 1
                src[t] = self.index_of[tuple(bumped)]
                fac[t] = alpha[v] + 1
            tab = (lower, src, fac)
            self._partials[v] = tab
        return tab

    def _meet(self, other: "JetSpace") -> "JetSpace":
        """The largest space inside both: the lower order and the lower cap."""
        space = self._meets.get(other)
        if space is None:
            if self.nvars != other.nvars:
                raise ValueError("jets built over different seed sets")
            capped = [s for s in (self, other) if s.cap is not None]
            if len({s.lead for s in capped}) > 1:
                raise ValueError("jets capped over different leading seeds")
            space = jet_space(
                self.nvars,
                min(self.order, other.order),
                capped[0].lead if capped else 0,
                min((s.cap for s in capped), default=None),
            )
            self._meets[other] = space
        return space

    def _gather(self, lower: "JetSpace"):
        """Where lower's coefficients sit in this space's: a slice when they are a prefix."""
        at = self._gathers.get(lower)
        if at is None:
            pos = [self.index_of[alpha] for alpha in lower.indices]
            at = slice(0, len(pos)) if pos == list(range(len(pos))) else np.asarray(pos, dtype=np.intp)
            self._gathers[lower] = at
        return at


@lru_cache(maxsize=None)
def _jet_space(nvars: int, order: int, lead: int, cap: int | None) -> JetSpace:
    return JetSpace(nvars, order, lead, cap)


def jet_space(nvars: int, order: int, lead: int = 0, cap: int | None = None) -> JetSpace:
    """The shared jet space over nvars seeds up to total order `order`.

    lead and cap keep only the derivatives of total degree at most cap along
    the first lead seeds.  A cap that drops nothing gives the uncapped space.
    """
    if nvars < 1:
        raise ValueError("jet space needs at least one seed direction")
    if not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"jet order must lie in [0, {MAX_JET_ORDER}], got {order}")
    if not 0 <= lead <= nvars or (cap is not None and cap < 0):
        raise ValueError(f"jet cap needs 0 <= lead <= {nvars} and cap >= 0, got lead {lead}, cap {cap}")
    if lead == 0 or cap is None or cap >= order:
        lead, cap = 0, None
    return _jet_space(nvars, order, lead, cap)


class Jet:
    """A truncated Taylor expansion; treat instances as immutable.

    `coef` has shape (ncoef,), or (ncoef, B) for a batch of B base points.
    """

    __slots__ = ("space", "coef")
    # numpy arrays of batch values defer to the reflected Jet operators
    __array_ufunc__ = None

    def __init__(self, space: JetSpace, coef: np.ndarray):
        self.space = space
        self.coef = coef

    @property
    def value(self):
        """The value at the base point: a float, or a (B,) array for a batch."""
        c0 = self.coef[0]
        return float(c0) if self.coef.ndim == 1 else c0

    def truncated(self, order: int) -> "Jet":
        """The same jet up to a lower total order, with the same cap."""
        if order > self.space.order:
            raise ValueError("cannot extend a jet to higher order")
        space = self.space
        return self._restricted(jet_space(space.nvars, order, space.lead, space.cap))

    def _restricted(self, space: JetSpace) -> "Jet":
        """The coefficients this jet carries of a space inside its own."""
        if space is self.space:
            return self
        return Jet(space, self.coef[self.space._gather(space)])

    def partial(self, v: int) -> "Jet":
        """Derivative jet along seed v; lives one order lower."""
        if self.space.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        lower, src, fac = self.space._partial_table(v)
        return Jet(lower, self.coef[src] * fac.reshape(fac.shape + (1,) * (self.coef.ndim - 1)))

    def derivative(self, alpha):
        """d^alpha f at the base point (coefficient times alpha!): a float, or (B,) for a batch."""
        alpha = tuple(int(a) for a in alpha)
        idx = self.space.index_of.get(alpha)
        if idx is None:
            raise ValueError(f"multi-index {alpha} outside jet space")
        scale = 1.0
        for a in alpha:
            scale *= math.factorial(a)
        c = self.coef[idx]
        return (float(c) if self.coef.ndim == 1 else c) * scale

    # ----- arithmetic ------------------------------------------------------

    def _align(self, other: "Jet"):
        a, b = self, other
        if a.space is not b.space:
            space = a.space._meet(b.space)
            a, b = a._restricted(space), b._restricted(space)
        if a.coef.ndim != b.coef.ndim:
            # an unbatched operand broadcasts over the other's batch axis
            if a.coef.ndim == 1:
                a = Jet(a.space, a.coef[:, None])
            else:
                b = Jet(b.space, b.coef[:, None])
        return a, b

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(a.space, a.coef + b.coef)
        coef = self.coef.copy()
        coef[0] += other
        return Jet(self.space, coef)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(a.space, a.coef - b.coef)
        coef = self.coef.copy()
        coef[0] -= other
        return Jet(self.space, coef)

    def __rsub__(self, other):
        coef = -self.coef
        coef[0] += other
        return Jet(self.space, coef)

    def __neg__(self):
        return Jet(self.space, -self.coef)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            I, J, K = a.space._mul_table()
            w = a.coef[I] * b.coef[J]
            # One bincount over the flattened index K*B + b sums every column's
            # terms in the single-point order, so each column is bit-identical;
            # a single point is B = 1, where the index is K itself.
            batch = w[0].size
            coef = np.bincount(
                a.space._batched_mul_index(batch), weights=w.ravel(), minlength=a.space.ncoef * batch
            )
            return Jet(a.space, coef.reshape((-1,) + w.shape[1:]))
        return Jet(self.space, self.coef * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return a * b._reciprocal()
        return Jet(self.space, self.coef / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p < 0:
                return (self ** (-p))._reciprocal()
            result = self.space.constant(1.0)
            base = self
            while p:
                if p & 1:
                    result = result * base
                base = base * base
                p >>= 1
            return result
        if p == 0.5:
            return self.sqrt()

        def coefficients(c0):
            # general real exponent via the binomial series around the value
            if c0 <= 0.0:
                raise EvaluationDomainError(f"jet power {p} needs positive value, got {c0}")
            coeffs = [c0 ** p]
            b = 1.0
            for k in range(1, self.space.order + 1):
                b *= (p - (k - 1)) / k
                coeffs.append(b * c0 ** (p - k))
            return coeffs

        return self._series(coefficients)

    # ----- analytic functions ---------------------------------------------

    def _series(self, coefficients) -> "Jet":
        """Evaluate sum c[k] * w^k with w = self - value and c = coefficients(value) (Horner).

        coefficients runs once per batch column on a Python float, so a batch
        reproduces the single-point floats exactly (numpy's pow, exp and log
        do not), and a column outside its domain raises for the whole batch.
        A value whose coefficients overflow the float range (exp above about
        709.78, a power of a huge value) is outside the domain too.
        """
        c0 = self.coef[0]
        try:
            coeffs = np.array([coefficients(c) for c in np.ravel(c0).tolist()]).T
        except OverflowError:
            raise EvaluationDomainError(f"jet series coefficients overflow at value {c0}") from None
        coeffs = coeffs.reshape((-1,) + c0.shape)
        w_coef = self.coef.copy()
        w_coef[0] = 0.0
        w = Jet(self.space, w_coef)
        acc = self.space.constant(coeffs[-1])
        for k in range(len(coeffs) - 2, -1, -1):
            acc = acc * w + coeffs[k]
        return acc

    def _reciprocal(self) -> "Jet":
        def coefficients(c0):
            if c0 == 0.0:
                raise EvaluationDomainError("division by a jet with zero value")
            return [((-1.0) ** k) / c0 ** (k + 1) for k in range(self.space.order + 1)]

        return self._series(coefficients)

    def sqrt(self) -> "Jet":
        def coefficients(c0):
            if c0 <= 0.0:
                raise EvaluationDomainError(f"jet sqrt needs positive value, got {c0}")
            s = math.sqrt(c0)
            coeffs = [s]
            b = 1.0
            for k in range(1, self.space.order + 1):
                b *= (0.5 - (k - 1)) / k
                coeffs.append(s * b / c0 ** k)
            return coeffs

        return self._series(coefficients)

    def exp(self) -> "Jet":
        def coefficients(c0):
            e = math.exp(c0)
            return [e / math.factorial(k) for k in range(self.space.order + 1)]

        return self._series(coefficients)

    def log(self) -> "Jet":
        def coefficients(c0):
            if c0 <= 0.0:
                raise EvaluationDomainError(f"jet log needs positive value, got {c0}")
            coeffs = [math.log(c0)]
            for k in range(1, self.space.order + 1):
                coeffs.append(((-1.0) ** (k + 1)) / (k * c0 ** k))
            return coeffs

        return self._series(coefficients)

    def __abs__(self) -> "Jet":
        c0 = self.coef[0]
        if not ((c0 > 0.0) | (c0 < 0.0)).all():
            raise EvaluationDomainError("abs of a jet with zero value is not differentiable")
        return Jet(self.space, self.coef * np.where(c0 < 0.0, -1.0, 1.0))

    # comparisons act on the scalar part, which keeps branchy evaluators usable
    def __lt__(self, other):
        return self.value < (other.value if isinstance(other, Jet) else other)

    def __le__(self, other):
        return self.value <= (other.value if isinstance(other, Jet) else other)

    def __gt__(self, other):
        return self.value > (other.value if isinstance(other, Jet) else other)

    def __ge__(self, other):
        return self.value >= (other.value if isinstance(other, Jet) else other)

    def __repr__(self):
        return f"Jet(nvars={self.space.nvars}, order={self.space.order}, value={self.value!r})"


# ----- scalar-or-jet helpers used by metric evaluators ----------------------


def jet_sqrt(v):
    """sqrt of a number, a jet, or elementwise of an array (object arrays too)."""
    if isinstance(v, float) or not isinstance(v, (Jet, np.ndarray)):
        if v <= 0.0:
            raise EvaluationDomainError(f"sqrt domain violation: {v}")
        return math.sqrt(v)
    if isinstance(v, Jet):
        return v.sqrt()
    if np.any(v <= 0.0):
        raise EvaluationDomainError(f"sqrt domain violation: {v}")
    return np.sqrt(v.astype(float))


def jet_exp(v):
    if isinstance(v, Jet):
        return v.exp()
    try:
        return math.exp(v)
    except OverflowError:
        raise EvaluationDomainError(f"exp overflows at {v}") from None


def jet_abs(v):
    if isinstance(v, float) or not isinstance(v, (Jet, np.ndarray)):
        return abs(float(v))
    return abs(v)


def scalar_value(v) -> float:
    return v.value if isinstance(v, Jet) else float(v)

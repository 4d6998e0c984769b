"""Rational self-maps of the Riemann sphere as coefficient pairs.

A map is stored as two ascending-order complex coefficient vectors
(numerator, denominator).  The point at infinity is represented by a
tagged value: any non-finite complex is treated as the infinity tag,
and polynomial evaluation sends every |z| beyond the overflow radius
to the tag instead of overflowing.

Normalization divides both vectors by the leading denominator
coefficient, so the denominator is always monic (constant 1 for
polynomials).  Rescaling the numerator alone would change the map, so
no further normalization is applied.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError

# |z| beyond this is identified with the point at infinity.
OVERFLOW_RADIUS = 1e150

# Relative resultant threshold below which num/den are declared to
# share a root and the map is rejected as degenerate.
COMMON_ROOT_TOL = 1e-12

INF = complex(math.inf, 0.0)


def is_inf(z: complex) -> bool:
    """True when z carries the infinity tag (any non-finite part)."""
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


# ---------------------------------------------------------------------------
# polynomial helpers on ascending coefficient tuples


def poly_trim(coeffs) -> tuple[complex, ...]:
    """Drop exact-zero leading (highest-order) coefficients."""
    c = [complex(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_eval(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_derivative(coeffs) -> tuple[complex, ...]:
    if len(coeffs) == 1:
        return (0j,)
    return poly_trim([k * coeffs[k] for k in range(1, len(coeffs))])


def poly_mul(a, b) -> tuple[complex, ...]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_trim(out)


def poly_add(a, b) -> tuple[complex, ...]:
    n = max(len(a), len(b))
    out = [0j] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for j, bj in enumerate(b):
        out[j] += bj
    return poly_trim(out)


def poly_sub(a, b) -> tuple[complex, ...]:
    return poly_add(a, tuple(-x for x in b))


def poly_scale(a, s: complex) -> tuple[complex, ...]:
    return poly_trim([s * x for x in a])


def poly_deflate(coeffs, root: complex) -> tuple[complex, ...]:
    """Divide by (z - root) via synthetic division, discarding the remainder."""
    n = len(coeffs) - 1
    out = [0j] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return poly_trim(out)


def _resultant(p, q) -> complex:
    """Sylvester-matrix resultant of two non-constant polynomials."""
    n, m = len(p) - 1, len(q) - 1
    size = n + m
    mat = np.zeros((size, size), dtype=complex)
    prow = list(reversed(p))
    qrow = list(reversed(q))
    for i in range(m):
        mat[i, i : i + n + 1] = prow
    for i in range(n):
        mat[m + i, i : i + m + 1] = qrow
    return complex(np.linalg.det(mat))


def _shares_root(num, den) -> bool:
    """Scale-invariant common-root test via the normalized resultant."""
    if len(den) == 1 or len(num) == 1:
        return False
    res = abs(_resultant(num, den))
    nscale = max(abs(c) for c in num)
    dscale = max(abs(c) for c in den)
    scale = nscale ** (len(den) - 1) * dscale ** (len(num) - 1)
    return res < COMMON_ROOT_TOL * scale


# ---------------------------------------------------------------------------
# rational functions and maps


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials, denominator normalized monic.

    No dynamical degree constraint; use RationalMap for iteration.
    """

    num: tuple[complex, ...]
    den: tuple[complex, ...] = field(default=(1 + 0j,))

    def __post_init__(self):
        num = poly_trim(self.num)
        den = poly_trim(self.den)
        if den == (0j,):
            raise ConstructionError("denominator is identically zero")
        lead = den[-1]
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
        if _shares_root(num, den):
            raise ConstructionError("numerator and denominator share a root")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    @property
    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    def derivative(self) -> "RationalFunction":
        """(P'Q - PQ') / Q**2 with shared pole factors cancelled."""
        dnum = poly_sub(
            poly_mul(poly_derivative(self.num), self.den),
            poly_mul(self.num, poly_derivative(self.den)),
        )
        dden = poly_mul(self.den, self.den)
        if len(self.den) > 1:
            dnum, dden = _cancel_common_roots(dnum, dden)
        return RationalFunction(dnum, dden)


def _cancel_common_roots(num, den):
    """Deflate roots shared by num and den (multiple poles of the source)."""
    from .periodic import all_roots  # local import avoids a module cycle

    if len(num) == 1 or len(den) == 1:
        return num, den
    for r in all_roots(den):
        for _ in range(r.multiplicity):
            if len(num) == 1 or len(den) == 1:
                break
            scale = max(abs(c) for c in num) * max(1.0, abs(r.value)) ** (len(num) - 1)
            if abs(poly_eval(num, r.value)) >= 1e-9 * scale:
                break
            num = poly_deflate(num, r.value)
            den = poly_deflate(den, r.value)
    return num, den


@dataclass(frozen=True)
class RationalMap(RationalFunction):
    """A degree >= 2 rational map, the dynamical object of the package."""

    def __post_init__(self):
        super().__post_init__()
        if self.degree < 2:
            raise ConstructionError(
                f"map degree {self.degree} < 2; not an admissible dynamical map"
            )

    def critical_points(self) -> list[complex]:
        """All finite critical points, repeated by multiplicity."""
        from .periodic import all_roots

        dnum = self.derivative().num
        if len(dnum) == 1:
            return []
        out: list[complex] = []
        for r in all_roots(dnum):
            out.extend([r.value] * r.multiplicity)
        out.sort(key=lambda w: (w.real, w.imag))
        return out

    def to_json(self) -> dict:
        return {
            "num": [[c.real, c.imag] for c in self.num],
            "den": [[c.real, c.imag] for c in self.den],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalMap":
        try:
            num = [complex(re, im) for re, im in data["num"]]
            den = [complex(re, im) for re, im in data["den"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"bad map serialization: {exc}") from exc
        if any(is_inf(c) for c in num + den):
            raise ConstructionError("map coefficients must be finite")
        return cls(tuple(num), tuple(den))


def quadratic_map(epsilon: complex) -> RationalMap:
    """z**2 + epsilon as a RationalMap, for the code that takes any map."""
    eps = complex(epsilon)
    if is_inf(eps):
        raise ConstructionError("epsilon must be finite")
    return RationalMap((eps, 0j, 1 + 0j))


def quadratic_epsilon(f: RationalFunction) -> complex | None:
    """The parameter when f is (normalized to) z**2 + epsilon, else None."""
    if f.is_polynomial and len(f.num) == 3 and f.num[1] == 0 and f.num[2] == 1:
        return f.num[0]
    return None


# ---------------------------------------------------------------------------
# evaluation


def _value_at_infinity(f: RationalFunction) -> complex:
    dp, dq = len(f.num) - 1, len(f.den) - 1
    if dp > dq:
        return INF
    if dp < dq:
        return 0j
    return f.num[-1] / f.den[-1]


def evaluate(f: RationalFunction, z: complex) -> complex:
    """Evaluate on the extended plane; poles and escapes give the tag."""
    z = complex(z)
    if is_inf(z) or abs(z) > OVERFLOW_RADIUS:
        return _value_at_infinity(f)
    wq = poly_eval(f.den, z)
    wp = poly_eval(f.num, z)
    if wq == 0:
        return INF
    w = wp / wq
    if is_inf(w) or abs(w) > OVERFLOW_RADIUS:
        return INF
    return w


def compose(outer: RationalFunction, inner: RationalFunction) -> RationalFunction:
    """Coefficient-level composition outer(inner(z)).

    With outer = P/Q of degree d and inner = R/S, the composite is
    sum_i p_i R^i S^(d-i) over sum_i q_i R^i S^(d-i), both vectors
    padded to length d+1 before the homogeneous expansion.
    """
    d = outer.degree
    p = list(outer.num) + [0j] * (d + 1 - len(outer.num))
    q = list(outer.den) + [0j] * (d + 1 - len(outer.den))
    r_pow: list[tuple[complex, ...]] = [(1 + 0j,)]
    s_pow: list[tuple[complex, ...]] = [(1 + 0j,)]
    for _ in range(d):
        r_pow.append(poly_mul(r_pow[-1], inner.num))
        s_pow.append(poly_mul(s_pow[-1], inner.den))
    num: tuple[complex, ...] = (0j,)
    den: tuple[complex, ...] = (0j,)
    for i in range(d + 1):
        term = poly_mul(r_pow[i], s_pow[d - i])
        if p[i] != 0:
            num = poly_add(num, poly_scale(term, p[i]))
        if q[i] != 0:
            den = poly_add(den, poly_scale(term, q[i]))
    return RationalFunction(num, den)

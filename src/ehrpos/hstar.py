"""h*-vectors and exact real-rootedness tests.

For a lattice polytope of dimension d with Ehrhart polynomial p, the
h*-vector (h*_0, ..., h*_d) is defined by the series identity
sum_{t>=0} p(t) z^t = h*(z) / (1-z)^(d+1), equivalently the basis change
p = sum_i h*_i C(t + d - i, d).  Evaluating against p(0), ..., p(d) and
inverting gives the closed form

    h*_i = sum_{j=0}^{i} (-1)^j C(d+1, j) p(i - j),

exact over Fractions.  For genuine Ehrhart polynomials every h*_i is a
nonnegative integer and h*_0 = 1.

Real-rootedness of a rational polynomial is decided exactly with Sturm
sequences: divide out gcd(p, p') to get the squarefree part q, build the
chain of negated remainders, and count sign variations at -infinity and
+infinity; q (hence p) has all roots real iff the variation difference
equals deg q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .ratpoly import Polynomial, RatLike, binomial


def hstar(p: Polynomial, dim: int) -> list[Fraction]:
    """h*-vector of a degree-dim Ehrhart polynomial, length dim + 1.

    The values p(0), ..., p(dim) are scaled by their common denominator,
    convolved with the signed binomials as integers, and divided once per
    entry.
    """
    if p.degree != dim:
        raise ValueError("dimension mismatch")
    values = [p(i) for i in range(dim + 1)]
    den = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (den // v.denominator) for v in values]
    signed = [binomial(dim + 1, j) * (-1) ** j for j in range(dim + 1)]
    return [
        Fraction(sum(signed[j] * scaled[i - j] for j in range(i + 1)), den)
        for i in range(dim + 1)
    ]


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while b:
        _, r = divmod(a, b)
        if r:
            # monic normalization keeps the coefficient growth in check
            r = r * Fraction(1, r.coeffs[-1])
        a, b = b, r
    return a


def _squarefree_part(p: Polynomial) -> Polynomial:
    g = _poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = divmod(p, g)
    if r:
        raise ArithmeticError(f"gcd(p, p') does not divide p: remainder {r}")
    return q


def _sturm_chain(q: Polynomial) -> list[Polynomial]:
    chain = [q, q.derivative()]
    while chain[-1]:
        _, r = divmod(chain[-2], chain[-1])
        if not r:
            break
        # a positive scale keeps every sign the variation count reads, and
        # stops the remainders' coefficients from growing with the chain
        chain.append(r * Fraction(-1, abs(r.coeffs[-1])))
    return [c for c in chain if c]


def _sign_variations(signs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def is_real_rooted(coeffs: Sequence[RatLike]) -> bool:
    """True iff all complex roots of the given polynomial are real.

    Exact Sturm-sequence decision; multiple roots are allowed (the test
    runs on the squarefree part, which has the same root set).
    """
    p = Polynomial(coeffs)
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return True
    q = _squarefree_part(p)
    chain = _sturm_chain(q)
    at_pos = [1 if c.coeffs[-1] > 0 else -1 for c in chain]
    at_neg = [
        s if len(c.coeffs) % 2 else -s  # odd degree flips sign at -infinity
        for s, c in zip(at_pos, chain)
    ]
    real_roots = _sign_variations(at_neg) - _sign_variations(at_pos)
    return real_roots == q.degree

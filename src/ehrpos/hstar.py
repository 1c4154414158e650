"""h*-vectors and exact real-rootedness tests.

For a lattice polytope of dimension d with Ehrhart polynomial p, the
h*-vector (h*_0, ..., h*_d) is defined by the series identity
sum_{t>=0} p(t) z^t = h*(z) / (1-z)^(d+1), equivalently the basis change
p = sum_i h*_i C(t + d - i, d).  Evaluating against p(0), ..., p(d) and
inverting gives the closed form

    h*_i = sum_{j=0}^{i} (-1)^j C(d+1, j) p(i - j),

exact over Fractions.  For genuine Ehrhart polynomials every h*_i is a
nonnegative integer and h*_0 = 1.

Real-rootedness of a rational polynomial p is decided exactly with one
Sturm chain of (p, p') over the integers: negated pseudo-remainders, each
scaled by a positive integer and made primitive, so every sign is that of
a true Sturm chain.  The chain ends in g = gcd(p, p'), which divides every
member, so the sign variations at -infinity and +infinity count the
distinct real roots; p is real-rooted iff that count is deg p - deg g.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .ratpoly import Polynomial, RatLike, binomial, horner


def hstar(p: Polynomial, dim: int) -> list[Fraction]:
    """h*-vector of a degree-dim Ehrhart polynomial, length dim + 1.

    The integer numerators of p are evaluated at 0, ..., dim, convolved
    with the signed binomials as integers, and divided by p.den once per
    entry.
    """
    if p.degree != dim:
        raise ValueError("dimension mismatch")
    scaled = [horner(p.nums, i) for i in range(dim + 1)]
    signed = [binomial(dim + 1, j) * (-1) ** j for j in range(dim + 1)]
    return [
        Fraction(sum(signed[j] * scaled[i - j] for j in range(i + 1)), p.den)
        for i in range(dim + 1)
    ]


def _primitive(nums: list[int]) -> list[int]:
    # divide by the positive gcd of the coefficients: every sign stays
    g = math.gcd(*nums)
    return [c // g for c in nums]


def _neg_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of -(a mod b), trailing zeros stripped.

    Each elimination step scales the running remainder by |lc(b)|, not
    lc(b), so the multiple stays positive and no Fraction is built.
    """
    if b[-1] < 0:  # a mod b == a mod -b
        b = [-x for x in b]
    r = list(a)
    nb = len(b)
    s, low = b[-1], b[:-1]
    for i in range(len(r) - nb, -1, -1):
        top = r.pop()  # coefficient of t**(i + nb - 1)
        if top:
            r[:i] = [s * x for x in r[:i]]
            r[i:] = [s * x - top * y for x, y in zip(r[i:], low)]
    while r and r[-1] == 0:
        r.pop()
    return [-x for x in r]


def _sign_variations(signs: Sequence[int]) -> int:
    # every sign is +1 or -1: chain members are nonzero polynomials
    return sum(a != b for a, b in zip(signs, signs[1:]))


def is_real_rooted(coeffs: Sequence[RatLike]) -> bool:
    """True iff all complex roots of the given polynomial are real.

    Exact Sturm-chain decision over the integers; multiple roots are
    allowed (the chain counts distinct roots, and gcd(p, p') accounts for
    the repeats).
    """
    p = Polynomial(coeffs)
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return True
    nums = _primitive(list(p.nums))
    chain = [nums, _primitive([m * c for m, c in enumerate(nums)][1:])]
    while True:
        r = _neg_pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive(r))
    at_pos = [1 if c[-1] > 0 else -1 for c in chain]
    at_neg = [
        s if len(c) % 2 else -s  # odd degree flips sign at -infinity
        for s, c in zip(at_pos, chain)
    ]
    real_roots = _sign_variations(at_neg) - _sign_variations(at_pos)
    # chain[-1] is gcd(p, p') up to a constant factor
    return real_roots == len(nums) - len(chain[-1])

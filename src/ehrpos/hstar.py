"""h*-vectors and exact real-rootedness tests.

For a lattice polytope of dimension d with Ehrhart polynomial p, the
h*-vector (h*_0, ..., h*_d) is defined by the series identity
sum_{t>=0} p(t) z^t = h*(z) / (1-z)^(d+1), equivalently the basis change
p = sum_i h*_i C(t + d - i, d).  Evaluating against p(0), ..., p(d) and
inverting gives the closed form

    h*_i = sum_{j=0}^{i} (-1)^j C(d+1, j) p(i - j),

all integers exactly when p is integer-valued (else `hstar` raises
ArithmeticError), and nonnegative with h*_0 = 1 for Ehrhart polynomials.

`hstar` reads this form only for i <= d // 2.  The upper half comes from
Popoviciu's reciprocity for polynomial sequences (Stanley, Enumerative
Combinatorics I, ch. 4), which holds for every polynomial of degree <= d:
sum_{t>=1} p(-t) z^t = (-1)^d z^(d+1) h*(1/z) / (1-z)^(d+1), so

    (-1)^d h*_{d+1-s} = sum_{j=0}^{s-1} (-1)^j C(d+1, j) p(-(s - j))

for s = 1, ..., d - d // 2.  Both halves need p only at the integers
-H..H, H = d - d // 2, and p(i) and p(-i) come from one evaluation of
its even and odd parts at i^2, so the evaluation takes about d^2 / 2
integer multiply-adds and the two convolutions about d^2 / 4 products.

Real-rootedness of an integer polynomial p is decided exactly with one
Sturm chain of (p, p'): negated pseudo-remainders, each scaled by a
positive integer and made primitive, so every sign is that of a true
Sturm chain.  The chain ends in g = gcd(p, p'), which divides every
member, so the sign variations at -infinity and +infinity count the
distinct real roots; p is real-rooted iff that count is deg p - deg g.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .ratpoly import Polynomial, binomial, horner


def hstar(p: Polynomial, dim: int) -> list[int]:
    """h*-vector of a degree-dim Ehrhart polynomial, length dim + 1.

    The integer numerators N of p are evaluated at 0, +-1, ..., +-H for
    H = dim - dim // 2: N(+-i) = E(i^2) +- i O(i^2) for the even part E and
    odd part O of N.  The values at 0..dim // 2 give the lower half of h*
    by the closed form, those at -1..-H the upper half by reciprocity (see
    the module docstring); each half is an integer convolution with the
    signed binomials, divided by p.den once per entry; an entry it does not
    divide raises ArithmeticError, as p is then not integer-valued.
    """
    if dim < 0 or p.degree != dim:
        raise ValueError("dimension mismatch")
    low, high = dim // 2, dim - dim // 2
    even, odd = p.nums[0::2], p.nums[1::2]
    at_pos, at_neg = [], []
    for i in range(high + 1):
        e, o = horner(even, i * i), i * horner(odd, i * i)
        at_pos.append(e + o)
        at_neg.append(e - o)
    signed = [(-1) ** j * binomial(dim + 1, j) for j in range(high + 1)]
    lower = [sum(map(mul, signed, at_pos[i::-1])) for i in range(low + 1)]
    # (-1)^dim h*_{dim+1-s} = sum_{j<s} signed[j] N(-(s - j)), for s = high..1
    sign = (-1) ** dim
    upper = [sign * sum(map(mul, signed, at_neg[s:0:-1])) for s in range(high, 0, -1)]
    h = lower + upper
    for i, v in enumerate(h):
        h[i], r = divmod(v, p.den)
        if r:
            raise ArithmeticError(f"h*_{i} is not an integer: p is not integer-valued")
    return h


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


def is_real_rooted(coeffs: Sequence[int]) -> bool:
    """True iff all complex roots of the polynomial with these int
    coefficients, constant first, are real; other entries raise TypeError.

    Exact Sturm-chain decision over the integers; multiple roots are
    allowed (the chain counts distinct roots, and gcd(p, p') accounts for
    the repeats).
    """
    nums = list(coeffs)
    if not all(isinstance(c, int) for c in nums):
        raise TypeError("is_real_rooted takes int coefficients only")
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        raise ValueError("zero polynomial")
    if len(nums) == 1:
        return True
    nums = _primitive(nums)
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

"""Seeded pseudorandom exact data for the property suites.

Coefficients are drawn uniformly from {-9..9}/{1..9}; the default seed is
fixed so every suite is reproducible, and the CLI threads its own seed
through (CARTANLAB_SEED in the environment overrides it there).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .forms import DualForm
from .liealg import LieAlgebra
from .poly import Poly

DEFAULT_SEED = 1729


def rng(seed=None) -> random.Random:
    return random.Random(DEFAULT_SEED if seed is None else seed)


def random_rational(r: random.Random) -> Fraction:
    return Fraction(r.randint(-9, 9), r.randint(1, 9))


def random_covector(g: LieAlgebra, r: random.Random) -> DualForm:
    """Nonzero grade-1 form with small rational coefficients."""
    while True:
        comps = [random_rational(r) for _ in range(g.dim)]
        if any(comps):
            return DualForm.covector(g, comps)


def random_poly(vars, r: random.Random, max_degree=2, terms=3) -> Poly:
    nv = len(tuple(vars))
    acc = {}
    for _ in range(terms):
        expo = [0] * nv
        for _ in range(max_degree):
            expo[r.randrange(nv)] += r.choice((0, 1))
        acc[tuple(expo)] = random_rational(r)
    return Poly(vars, acc)

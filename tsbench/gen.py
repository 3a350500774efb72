"""Seeded input generator.

`op_specs(workload, seed)` yields an endless, deterministic list of op
specs: the same seed always gives the same list, and a run executes a
prefix of it.  Op kinds (and their input families) cycle in a fixed
order so every run has the same mix; only the drawn exponents and
coefficients depend on the seed.  Specs are plain data in the oracle's
representation (see oracle.py); the program only ever sees
the objects `workloads.build_*` makes from them.  No draw is filtered on
how the program behaves on it; the only redraws are of duplicate
monomials and of perturbations whose composite no lazy engine can finish
(`_square_completing`).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from oracle import X, mono, norm

# Forced prefix depth per op kind (terms the op forces), and the sample
# point for numeric checks.
DEPTH = {"compose": 6, "inverse": 4, "taylor": 1, "session": 7}
SAMPLE_X = 10 ** 4

CYCLES = {
    "compose": ["compose:power", "inverse:power", "taylor:power", "compose:exp",
                "inverse:exp", "taylor:exp", "compose:mixed", "inverse:power",
                "compose:exp", "inverse:exp"],
    # family 0 twice: the median then falls inside its latencies, not in
    # the gap between two families
    "session": ["session:0", "session:1", "session:2", "session:3", "session:4",
                "session:5", "session:0"],
}

_COEFF_NUM = [-3, -2, -1, 1, 2, 3, 5]
_COEFF_DEN = [1, 1, 2, 3]


def _coeff(rng) -> Fraction:
    return Fraction(rng.choice(_COEFF_NUM), rng.choice(_COEFF_DEN))


def distinct(draws) -> list:
    """One monomial per draw function, redrawing duplicates."""
    monos = []
    for draw in draws:
        m = draw()
        while m in monos:
            m = draw()
        monos.append(m)
    return monos


# ---------------------------------------------------------------------------
# per-kind specs; every kind has a fixed input shape, so the seed draws
# exponents and coefficients but not the amount of work

def _perturbation(rng, family: str) -> list:
    """Small t for x + t: two powers, or one exponentially small term."""
    if family == "power":
        while True:
            ks = distinct([lambda: Fraction(rng.randint(2, 6), rng.choice([1, 2]))] * 2)
            t = norm({mono(-k): _coeff(rng) for k in ks})
            if not _square_completing(t):
                return t
    lam = rng.randint(1, 2)
    return [(mono(rng.randint(-2, 1), [(X, -lam)]), _coeff(rng))]


def _square_completing(t) -> bool:
    """Is 1 + t/x, for t = a x^-k + b x^-l, the square (1 + (a/2) x^-(k+1))^2?

    Then x^(1/2) o (x + t) is the finite sum x^(1/2) + (a/2) x^(-k-1/2), and
    the next term of a composite with it lies behind infinitely many zero
    coefficients.  No lazy term stream can decide that they are all zero,
    so the program rightly stops with BudgetExhausted; such t are redrawn.
    """
    (m1, a), (m2, b) = t
    return m2[0] - 1 == 2 * (m1[0] - 1) and b == a * a / 4


def _compose(kind, rng):
    kind, _, family = kind.partition(":")
    if kind == "compose":
        t = random_series_xe(rng)
        if family == "mixed":
            delta = norm(dict(_perturbation(rng, "power") + _perturbation(rng, "exp")))
        else:
            delta = _perturbation(rng, family)
        return {"args": (t, [(X, Fraction(1))] + delta)}
    if kind == "inverse":
        return {"args": ([(X, Fraction(1))] + _perturbation(rng, family),)}
    # taylor: T(x + U1) - T(x + U2) ~ T'(x)(U1 - U2)
    if family == "power":
        t = [(mono(Fraction(rng.choice([-3, -1, 1, 3, 5]), 2)), _coeff(rng))]
    else:
        t = [(mono(rng.randint(-1, 1), [(X, -1)]), _coeff(rng))]
    k1, k2 = rng.sample([1, 2, 3, 4], 2)
    return {"args": (t, [(mono(-k1), _coeff(rng))], [(mono(-k2), _coeff(rng))])}


def random_series_xe(rng) -> list:
    """x^q, x^q e^{-x} and x^q e^{-2x} terms, the shape compose accepts."""
    draws = [lambda lam=lam: mono(Fraction(rng.randint(-6, 2), 2), [(X, -lam)])
             for lam in (0, 1, 2)]
    return norm({m: _coeff(rng) for m in distinct(draws)})


_SESSION_FAMILIES = [
    # (template, sample point); {a}, {b}... are drawn rationals
    ("exp({a} + {b}/x)", SAMPLE_X),
    ("({c} + {b}*x^(-1/2))^(1/2)", SAMPLE_X),
    ("log({c}*x + exp(-x))", 30),
    ("D(exp({a} + {b}/x))", SAMPLE_X),
    ("({c} + x^(-1))^(1/2)*exp({b}/x)", SAMPLE_X),
    ("log({c}*x + x^(-1))", SAMPLE_X),
]


def _session(kind, rng):
    template, x0 = _SESSION_FAMILIES[int(kind.partition(":")[2])]
    a = Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2, 3]))
    b = Fraction(rng.choice([1, 2, -1, -3]), rng.choice([1, 2]))
    c = rng.choice([2, 3, 5, 6, 7])

    def q(v: Fraction) -> str:
        return f"({v.numerator}/{v.denominator})" if v.denominator != 1 else f"({v.numerator})"

    return {"text": template.format(a=q(a), b=q(b), c=c), "x0": x0}


_MAKERS = {"compose": _compose, "session": _session}


def op_specs(workload: str, seed: int):
    """Endless deterministic op list for a workload."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    maker = _MAKERS[workload]
    for i, kind in zip(itertools.count(), itertools.cycle(CYCLES[workload])):
        spec = maker(kind, rng)
        kind = kind.partition(":")[0]
        spec.update(id=i, kind=kind, depth=DEPTH.get(kind, 0))
        yield spec

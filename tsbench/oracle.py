"""Independent oracle for the benchmark.

Nothing here imports `transserial`.  Two engines check program outputs:

* an exact engine in `fractions` for finite-exponent transseries
  x^q (log x)^p e^L, with L a finite combination of large log-free
  monomials.  It does truncated Laurent/Puiseux arithmetic: products,
  binomial and exponential power series, derivatives, right composition
  with x + (small) and series reversion by iterating B <- -t(x + B), in
  the style of a naive reversion oracle;
* a numeric engine in mpmath that evaluates an expression text at a large
  sample point and accepts a truncated rendering of it when the rendered
  terms lie within a fixed multiple of the first omitted term.

Monomials are tuples (q, p, L) where L is a tuple of
(monomial, Fraction) pairs sorted decreasingly; series are lists of
(monomial, Fraction) pairs sorted decreasingly.  A truncation `cut` keeps
the terms whose monomial is >= cut.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from functools import cmp_to_key

import mpmath

F0 = Fraction(0)
F1 = Fraction(1)


class Mono(tuple):
    """A monomial (q, p, L).  Its hash is computed once: hashing the
    Fractions inside dominates the oracle's time otherwise."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


ONE = Mono((F0, F0, ()))
X = Mono((F1, F0, ()))
LOGX = Mono((F0, F1, ()))

# Power-series evaluations give up past this many powers of the small part.
MAX_POWERS = 400
# Reversion gives up when its fixed-point iteration has not settled after
# this many steps.
MAX_REVERSION_STEPS = 200
# Numeric acceptance: |value - reference| <= TAIL_FACTOR * |first omitted term|.
TAIL_FACTOR = 8


class Mismatch(Exception):
    """A program output disagrees with the oracle."""


class Unsupported(Exception):
    """The input or output leaves the fragment the oracle computes exactly."""


def _sgn(q) -> int:
    return (q > 0) - (q < 0)


# ---------------------------------------------------------------------------
# monomials

_cmp_cache: dict = {}


def cmp(a, b) -> int:
    """Asymptotic order of monomials: -1 when a < b (a is smaller)."""
    if a == b:
        return 0
    key = (a, b)
    hit = _cmp_cache.get(key)
    if hit is None:
        hit = _cmp_uncached(a, b)
        _cmp_cache[key] = hit
    return hit


def _cmp_uncached(a, b) -> int:
    la, lb = a[2], b[2]
    i = j = 0
    while i < len(la) or j < len(lb):
        if j >= len(lb):
            return _sgn(la[i][1])
        if i >= len(la):
            return -_sgn(lb[j][1])
        c = cmp(la[i][0], lb[j][0])
        if c > 0:
            return _sgn(la[i][1])
        if c < 0:
            return -_sgn(lb[j][1])
        if la[i][1] != lb[j][1]:
            return _sgn(la[i][1] - lb[j][1])
        i += 1
        j += 1
    if a[0] != b[0]:
        return _sgn(a[0] - b[0])
    return _sgn(a[1] - b[1])


_desc = cmp_to_key(lambda a, b: cmp(b[0], a[0]))


def norm(d: dict) -> list:
    """Decreasing term list from a {monomial: coefficient} dict."""
    return sorted(((m, c) for m, c in d.items() if c != 0), key=_desc)


def mono(q=0, L=(), p=0):
    """x^q (log x)^p e^L from exponent terms L = [(large monomial, coeff)]."""
    acc: dict = {}
    for m, c in L:
        acc[m] = acc.get(m, F0) + Fraction(c)
    return Mono((Fraction(q), Fraction(p), tuple(norm(acc))))


def mul(a, b):
    if a == ONE:
        return b
    if b == ONE:
        return a
    if not a[2]:
        L = b[2]
    elif not b[2]:
        L = a[2]
    else:
        acc = dict(a[2])
        for m, c in b[2]:
            acc[m] = acc.get(m, F0) + c
        L = tuple(norm(acc))
    return Mono((a[0] + b[0], a[1] + b[1], L))


def mpow(a, r):
    r = Fraction(r)
    if r == 0:
        return ONE
    return Mono((a[0] * r, a[1] * r, tuple((m, c * r) for m, c in a[2])))


def div(a, b):
    return mul(a, mpow(b, -1))


def is_small(m) -> bool:
    return cmp(m, ONE) < 0


# ---------------------------------------------------------------------------
# truncated series arithmetic

def _keep(m, cut) -> bool:
    return cut is None or cmp(m, cut) >= 0


def truncate(A: list, cut) -> list:
    return [t for t in A if _keep(t[0], cut)]


def add(*series) -> list:
    acc: dict = {}
    for A in series:
        for m, c in A:
            acc[m] = acc.get(m, F0) + c
    return norm(acc)


def scale(A: list, c, m=ONE) -> list:
    c = Fraction(c)
    if c == 0:
        return []
    return [(mul(m, n), c * d) for n, d in A]


def smul(A: list, B: list, cut=None) -> list:
    acc: dict = {}
    for ma, ca in A:
        for mb, cb in B:
            m = mul(ma, mb)
            if cut is not None and cmp(m, cut) < 0:
                break  # B decreases, so every later product is smaller too
            acc[m] = acc.get(m, F0) + ca * cb
    return norm(acc)


def power_family(S: list, coeff, cut, stop=None) -> list:
    """Σ_j coeff(j)·S^j over j ≥ 0, truncated at cut (S small)."""
    acc = {ONE: Fraction(coeff(0))}
    P = [(ONE, F1)]
    j = 0
    while S:
        j += 1
        if stop is not None and j > stop:
            break
        if cut is None and stop is None:
            raise Unsupported("infinite power series without a truncation")
        if j > MAX_POWERS:
            raise Unsupported("power series needs too many powers")
        P = smul(P, S, cut)
        if not P:
            break
        k = Fraction(coeff(j))
        if k:
            for m, c in P:
                acc[m] = acc.get(m, F0) + k * c
    return norm(acc)


def binomial(b: Fraction, j: int) -> Fraction:
    out = F1
    for i in range(j):
        out = out * (b - i) / (i + 1)
    return out


def exp_small(S: list, cut) -> list:
    return power_family(S, lambda j: Fraction(1, math.factorial(j)), cut)


def deriv_mono(m) -> list:
    """m' = m·(q/x + p/(x log x) + L')."""
    if m == ONE:
        return []
    q, p, L = m
    parts = []
    if q:
        parts.append([(mpow(X, -1), q)])
    if p:
        parts.append([(mul(mpow(X, -1), mpow(LOGX, -1)), p)])
    for b, lam in L:
        parts.append(scale(deriv_mono(b), lam))
    return scale(add(*parts), 1, m)


def deriv(A: list) -> list:
    return add(*[scale(deriv_mono(m), c) for m, c in A])


def compose(T: list, s: list, cut=None) -> list:
    """T∘s for s = x + δ with δ small and T built from x^q e^{λx}."""
    if not s or s[0] != (X, F1) or any(not is_small(m) for m, _ in s[1:]):
        raise Unsupported("composition needs s = x + small")
    delta = s[1:]
    over_x = scale(delta, 1, mpow(X, -1))
    out = []
    for m, c in T:
        q, p, L = m
        if p != 0 or any(b != X for b, _ in L):
            raise Unsupported("composition of a monomial outside x^q e^{λx}")
        lam = sum((k for _, k in L), F0)
        cut_m = None if cut is None else div(cut, m)
        stop = q.numerator if q.denominator == 1 and q >= 0 else None
        f1 = power_family(over_x, lambda j: binomial(q, j), cut_m, stop)
        f2 = exp_small(scale(delta, lam), cut_m) if lam else [(ONE, F1)]
        out.append(scale(smul(f1, f2, cut_m), c, m))
    return truncate(add(*out), cut)


def inverse(T: list, cut) -> list:
    """S with T∘S = x for T = x + t, t small: iterate B <- -t∘(x + B)."""
    if not T or T[0] != (X, F1):
        raise Unsupported("reversion needs T = x + small")
    t = T[1:]
    B = truncate(scale(t, -1), cut)
    for _ in range(MAX_REVERSION_STEPS):
        nxt = truncate(scale(compose(t, [(X, F1)] + B, cut), -1), cut)
        if nxt == B:
            return truncate([(X, F1)] + B, cut)
        B = nxt
    raise Unsupported("reversion did not stabilize")


# ---------------------------------------------------------------------------
# numeric evaluation of expression texts

def numeric_close(value, reference, omitted_size, what: str):
    """Accept value when it is within TAIL_FACTOR first-omitted-terms (plus
    the working precision) of the reference."""
    slack = TAIL_FACTOR * omitted_size + mpmath.mpf(2) ** (-mpmath.mp.prec // 2) * max(
        1, abs(reference))
    if abs(value - reference) > slack:
        raise Mismatch(f"{what}: numeric value {mpmath.nstr(value, 20)} vs reference "
                       f"{mpmath.nstr(reference, 20)} (slack {mpmath.nstr(slack, 5)})")


_FUNCS = {"exp": mpmath.exp, "log": mpmath.log, "sqrt": mpmath.sqrt}


def eval_text(text: str, x):
    """Numeric value of an expression in x (operators + - * / ^ **, exp,
    log, sqrt, E and D(...) for the derivative in x)."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    return _eval_node(tree.body, x)


def _eval_node(node, x):
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return mpmath.mpf(node.value)
    if isinstance(node, ast.Name):
        if node.id == "x":
            return x
        if node.id == "E":
            return mpmath.e
        raise Unsupported(f"unknown name {node.id}")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand, x)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        a, b = _eval_node(node.left, x), _eval_node(node.right, x)
        op = type(node.op)
        if op is ast.Add:
            return a + b
        if op is ast.Sub:
            return a - b
        if op is ast.Mult:
            return a * b
        if op is ast.Div:
            return a / b
        if op is ast.Pow:
            return mpmath.power(a, b)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name == "D" and len(node.args) == 1:
            return mpmath.diff(lambda t: _eval_node(node.args[0], t), x)
        if name in _FUNCS and len(node.args) == 1:
            return _FUNCS[name](_eval_node(node.args[0], x))
    raise Unsupported(f"cannot evaluate {ast.dump(node)[:60]}")


def split_terms(text: str) -> list:
    """Top-level signed terms of a rendered sum 'a + b - c + ...'."""
    terms, depth, start, sign = [], 0, 0, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            terms.append((sign, text[start:i].strip()))
            sign = 1 if text[i + 1] == "+" else -1
            start = i + 3
            i += 3
            continue
        i += 1
    terms.append((sign, text[start:].strip()))
    return [(s, t) for s, t in terms if t]

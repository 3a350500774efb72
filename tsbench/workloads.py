"""Op kinds: build program inputs from a spec, run the op, read its
output back into plain data, and check that data against the oracle.

`build` and `extract` run outside the timed region; `run` is the timed
call.  Only `check` consults the oracle, and it never calls the program.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

import oracle as O
from gen import DEPTH
from oracle import Mismatch, Unsupported

# Bound at import by `bind(transserial modules)`; the benchmark resolves
# every program function through these modules at call time, so a tracer
# that replaces module attributes sees the calls.
T = None

# Term budget (the program's `config.term_budget`, the `--budget` of its
# command line) compose inputs are built and compose ops run under.  At the default of 64 one certified
# compose with an exponential term takes seconds, almost all of it in the
# lattice search of grid.subgrid_witness.
COMPOSE_BUDGET = 16
# Working precision (bits) of the numeric session check.
SESSION_PREC = 400


def bind(modules):
    global T
    T = modules


# ---------------------------------------------------------------------------
# spec -> program objects

def build_mono(m):
    q, p, L = m
    if p:
        raise Unsupported(f"logarithmic monomial {m} in an input")
    arg = T.series.ts_from_terms([(build_mono(b), c) for b, c in L]) if L else None
    return T.monomial.make_mono(0, q, arg)


def build_series(A):
    return T.series.ts_from_terms([(build_mono(m), c) for m, c in A])


# ---------------------------------------------------------------------------
# program objects -> oracle data (attribute reads only, nothing is forced)

def to_mono(m):
    if m.depth != 0:
        raise Unsupported(f"monomial {m} of depth {m.depth}")
    L = ()
    if m.arg is not None:
        if not m.arg.stream.done:
            raise Unsupported("monomial with a lazily defined exponent")
        L = [(to_mono(g), _coeff(c)) for g, c in m.arg.stream.known()]
    return O.mono(m.xexp, L)


def _coeff(c) -> Fraction:
    if not isinstance(c, Fraction):
        raise Unsupported(f"irrational coefficient {c}")
    return c


def to_terms(ts, n):
    known = ts.stream.known()[:n]
    return {"terms": [(to_mono(m), _coeff(c)) for m, c in known],
            "done": ts.stream.done and len(ts.stream.known()) <= n}


# ---------------------------------------------------------------------------
# compose

def check_prefix(out, expected, what):
    """Exact check of a forced prefix: every oracle term down to the last
    forced monomial must appear, with the same coefficient; a finished
    stream must match the oracle's whole (finite) result."""
    got = out["terms"]
    if not got:
        want = expected(None)
        if want:
            raise Mismatch(f"{what}: program gave no terms, oracle {want[:2]}")
        return
    cut = None if out["done"] else got[-1][0]
    want = expected(cut)
    if want != got:
        diff = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                    min(len(want), len(got)))
        raise Mismatch(f"{what}: term {diff} differs: oracle "
                       f"{want[diff:diff + 1]} program {got[diff:diff + 1]}")


def _build_compose(spec):
    # a transseries keeps the budget it was made under
    with T.config.term_budget(COMPOSE_BUDGET):
        return tuple(build_series(A) for A in spec["args"])


def _run_compose(spec, args, state):
    kind, n = spec["kind"], spec["depth"]
    c = T.compose
    with T.config.term_budget(COMPOSE_BUDGET):
        if kind == "compose":
            out = c.compose(args[0], args[1])
            out.terms(n)
            return out
        if kind == "inverse":
            out = c.comp_inverse(args[0])
            out.terms(n)
            return out
        return c.taylor1(args[0], T.series.ts_x(), args[1], args[2], witnessed=True)


def _extract_compose(spec, out):
    if spec["kind"] == "taylor":
        def dom(d):
            return None if d is None else (to_mono(d[0]), _coeff(d[1]))

        return {"holds": out.holds, "lhs": dom(out.lhs_dom), "rhs": dom(out.rhs_dom)}
    return to_terms(out, spec["depth"])


def _check_compose(spec, out):
    kind, a = spec["kind"], spec["args"]
    if kind == "compose":
        check_prefix(out, lambda cut: O.compose(a[0], a[1], cut), "compose")
    elif kind == "inverse":
        check_prefix(out, lambda cut: O.inverse(a[0], cut), "inverse")
    else:
        t, u1, u2 = a
        core = [(m, c) for m, c in t if m != O.ONE]
        du = O.add(u1, O.scale(u2, -1))
        lead = O.smul(O.deriv(core)[:1], du[:1])[0]
        if not out["holds"] or out["lhs"] != lead or out["rhs"] != lead:
            raise Mismatch(f"taylor1: expected leading {lead}, got {out}")


# ---------------------------------------------------------------------------
# session

def _build_session(spec):
    return (spec["text"],)


def _new_session():
    return T.cli.Session(terms=DEPTH["session"])


def _run_session(spec, args, session):
    cli = T.cli
    ast = cli.parse(args[0])
    with T.config.term_budget(session.budget):
        value = cli.evaluate(ast, session)
        return value, cli.render(value, session, True, True)


def _extract_session(spec, out):
    """The rendered text, and the value rendered with one more term: its
    last term sizes the tail the shown terms leave out."""
    value, text = out
    return {"text": text, "longer": T.series.series_text(value, DEPTH["session"] + 1)}


def _check_session(spec, out):
    lines = out["text"].splitlines()
    if len(lines) < 3 or not lines[1].strip().startswith("gen=") or \
            not lines[2].strip().startswith("wit="):
        raise Mismatch(f"session: rendering lacks certificates: {out['text'][:80]}")
    shown = O.split_terms(lines[0])
    omitted = []
    if shown and shown[-1][1] == "...":
        shown = shown[:-1]
        longer = O.split_terms(out["longer"])
        if longer[:len(shown)] != shown:
            raise Mismatch(f"session: {out['longer']!r} does not extend {lines[0]!r}")
        omitted = [t for t in longer[len(shown):] if t[1] != "..."]
        if not omitted:
            raise Mismatch(f"session: {lines[0]!r} is truncated but {out['longer']!r} is not")
    with mpmath.workprec(SESSION_PREC):
        x0 = mpmath.mpf(spec["x0"])
        value = sum(s * O.eval_text(t, x0) for s, t in shown)
        tail = sum(abs(O.eval_text(t, x0)) for _, t in omitted)
        ref = O.eval_text(spec["text"], x0)
        O.numeric_close(value, ref, tail, f"session {spec['text']}")


# ---------------------------------------------------------------------------

class Workload:
    """`new_state()` makes the long-lived object ops share (the cli
    session); `run(spec, args, state)` is the timed call."""

    def __init__(self, build, run, extract, check, new_state=lambda: None):
        self.build, self.run, self.extract, self.check = build, run, extract, check
        self.new_state = new_state


WORKLOADS = {
    "compose": Workload(_build_compose, _run_compose, _extract_compose, _check_compose),
    "session": Workload(_build_session, _run_session, _extract_session, _check_session,
                        _new_session),
}

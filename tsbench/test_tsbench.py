"""Tests of the benchmark's own code: generator, oracle, tracer, reset,
deadlines and the exit code."""

import itertools
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle as O  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    T = worker.import_program()
    workloads.bind(T)
    return T


def _specs(workload, seed, n=40):
    return list(itertools.islice(gen.op_specs(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(gen.CYCLES))
def test_generator_deterministic_per_seed(workload):
    assert _specs(workload, 7) == _specs(workload, 7)
    assert _specs(workload, 7) != _specs(workload, 8)
    kinds = [s["kind"] for s in _specs(workload, 3)]
    cycle = gen.CYCLES[workload]
    assert kinds == [cycle[i % len(cycle)].partition(":")[0] for i in range(len(kinds))]


def test_generator_redraws_square_completing_perturbations():
    x_inv, x_inv3 = O.mono(-1), O.mono(-3)
    # 1 + (2/x + x^-3)/x = (1 + x^-2)^2
    assert gen._square_completing([(x_inv, Fraction(2)), (x_inv3, Fraction(1))])
    assert not gen._square_completing([(x_inv, Fraction(2)), (x_inv3, Fraction(2))])
    # the x + t arguments with two power terms in t
    shifts = [s["args"][-1] for s in itertools.islice(gen.op_specs("compose", 9), 2000)
              if s["kind"] != "taylor" and len(s["args"][-1]) == 3]
    assert len(shifts) > 500
    assert not any(gen._square_completing(s[1:]) for s in shifts)


def _run_one(workload, kind, seed=5):
    W = workloads.WORKLOADS[workload]
    spec = next(s for s in gen.op_specs(workload, seed) if s["kind"] == kind)
    out = W.run(spec, W.build(spec), W.new_state())
    return W, spec, W.extract(spec, out)


@pytest.mark.parametrize("kind", ["compose", "inverse"])
def test_oracle_rejects_planted_coefficient(program, kind):
    W, spec, data = _run_one("compose", kind)
    W.check(spec, data)
    i = len(data["terms"]) // 2
    m, c = data["terms"][i]
    bad = dict(data, terms=data["terms"][:i] + [(m, c + Fraction(1, 7))] + data["terms"][i + 1:])
    with pytest.raises(O.Mismatch):
        W.check(spec, bad)


def test_oracle_rejects_dropped_term(program):
    W, spec, data = _run_one("compose", "inverse")
    W.check(spec, data)
    bad = dict(data, terms=data["terms"][:1] + data["terms"][2:])
    with pytest.raises(O.Mismatch):
        W.check(spec, bad)


def _double_term(line, i):
    """`line` (a rendered sum) with its i-th term doubled."""
    terms = O.split_terms(line)
    terms[i] = (terms[i][0], f"(2)*{terms[i][1]}")
    out = terms[0][1]
    for sign, t in terms[1:]:
        out += f" {'+' if sign > 0 else '-'} {t}"
    return out


@pytest.mark.parametrize("which", ["first", "last"])
def test_numeric_oracle_rejects_planted_coefficient(program, which):
    W, spec, data = _run_one("session", "session")
    W.check(spec, data)
    line, certs = data["text"].split("\n", 1)
    shown = [t for t in O.split_terms(line) if t[1] != "..."]
    assert len(shown) == gen.DEPTH["session"]
    i = 0 if which == "first" else len(shown) - 1
    bad = {"text": _double_term(line, i) + "\n" + certs,
           "longer": _double_term(data["longer"], i)}
    with pytest.raises(O.Mismatch, match="numeric value"):
        W.check(spec, bad)


def test_oracle_reversion_by_hand():
    # (x + x^-1) inverse: x - x^-1 - x^-3 - 2x^-5 - 5x^-7 ...
    T = [(O.X, Fraction(1)), (O.mono(-1), Fraction(1))]
    S = O.inverse(T, O.mono(-7))
    assert S == [(O.X, 1), (O.mono(-1), -1), (O.mono(-3), -1), (O.mono(-5), -2),
                 (O.mono(-7), -5)]


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, seconds):
        self.t += seconds


def _toy_package(clock):
    """A package shaped like transserial whose layers call each other."""
    name = "toytrace"
    mods = {name: types.ModuleType(name)}
    for layer in tracer_mod.LAYERS + ("errors",):
        mods[f"{name}.{layer}"] = types.ModuleType(f"{name}.{layer}")

    def define(layer, fn):
        fn.__module__ = f"{name}.{layer}"
        setattr(mods[f"{name}.{layer}"], fn.__name__, fn)
        return fn

    grid = mods[f"{name}.grid"]
    series = mods[f"{name}.series"]

    def member():
        clock.work(0.030)

    def helper():  # same layer as its caller: counted, no span
        clock.work(0.005)

    def outer():
        clock.work(0.010)
        grid.member()
        series.helper()
        clock.work(0.002)

    define("grid", member)
    define("series", helper)
    define("series", outer)

    class Stream:
        def force_len(self, n):
            return n

    class BudgetExhausted(Exception):
        pass

    series.Stream = Stream
    mods[f"{name}.errors"].BudgetExhausted = BudgetExhausted
    grid._member_cache = {}
    grid.UnknownMembership = type("UnknownMembership", (), {})
    grid.RatioSet = type("RatioSet", (), {})
    return name, mods


def test_tracer_self_time_on_nested_call(monkeypatch):
    clock = _Clock()
    name, mods = _toy_package(clock)
    for mod_name, mod in mods.items():
        monkeypatch.setitem(sys.modules, mod_name, mod)
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    tr = tracer_mod.Tracer()
    tr.install(name)
    tr.active = True
    tr.op = 3
    mods[f"{name}.series"].outer()
    tr.active = False
    tr.uninstall()
    assert tr.self_s["series"] == pytest.approx(0.017)
    assert tr.self_s["grid"] == pytest.approx(0.030)
    assert tr.calls["series.helper"] == 1 and tr.calls["grid.member"] == 1
    spans = sorted(zip(tr.sp_name, tr.sp_parent, tr.sp_id, tr.sp_op))
    names = {tr.names[n]: (parent, sid, op) for n, parent, sid, op in spans}
    assert set(names) == {"series.outer", "grid.member"}
    assert names["grid.member"][0] == names["series.outer"][1]
    assert names["series.outer"][0] == -1
    assert all(op == 3 for _, _, op in names.values())
    assert not hasattr(mods[f"{name}.series"].outer, "__wrapped__")


def test_reset_caches_keeps_identity(program):
    T = program
    _run_one("compose", "inverse")
    worker.reset_caches(T)
    mono = T.monomial
    x_inv = mono.mono_inv(mono.X)
    assert x_inv is mono.make_mono(0, Fraction(-1), None)
    assert mono.mono_mul(x_inv, mono.X) is mono.ONE
    W, spec, data = _run_one("compose", "inverse", seed=6)
    W.check(spec, data)


def test_missed_deadline_counts_as_failed(program, monkeypatch, capsys):
    monkeypatch.setattr(worker, "DEADLINE_S", 0.002)
    monkeypatch.setattr(worker, "WARMUP", 1)
    assert worker.main(["--workload", "compose", "--seed", "4", "--ops", "6"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["attempted"] == 7 and 0 < res["failed"] <= 7
    assert not res["correct"] and not res["mismatches"]
    assert res["failures"] and "deadline" in res["failures"][0]
    missed = [t for t in res["op_times_s"] if t == 0.002]
    assert missed, "a missed op is timed at its deadline"


def test_latency_at_reference_speed(monkeypatch):
    monkeypatch.setattr(worker, "REF_MS", 1.0)
    # ops after refs[1] and refs[2]: a stray slow reference timing before
    # the first op is outvoted, and the host ran at half speed around the
    # second op
    refs = [0.001, 0.009, 0.001, 0.002, 0.002]
    scaled = worker.at_reference_speed([0.010, 0.010], refs, 1)
    assert scaled == pytest.approx([0.010, 0.005])


def _fake_result(failed):
    return {"attempted": 10, "failed": failed, "measured": 9, "above_p90": 1,
            "correct": not failed, "mismatches": [],
            "failures": ["op 3 (compose) missed its 20s deadline"] * failed,
            "ops_per_s": 5.0, "latency_p50_ms": 1.0, "latency_p90_ms": 2.0,
            "peak_rss_mb": 60.0}


@pytest.mark.parametrize("failed", [0, 1])
def test_failed_op_fails_the_run(monkeypatch, capsys, failed):
    monkeypatch.setattr(run, "run_worker", lambda args, timeout: (0.5, _fake_result(failed)))
    code = run.main(["--workload", "compose", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is (not failed)
    assert code == (1 if failed else 0)
    assert ("FAILED op 3" in out) is bool(failed)

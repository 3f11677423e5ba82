"""Tests of the benchmark's own parts: fault inputs, known answers, spans.

    python3 -m pytest bench/tests -q
"""

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import pytest  # noqa: E402

import faults  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from fanopencils import cli, digraph, verify, voltage  # noqa: E402
from fanopencils.digraph import build_d  # noqa: E402


@pytest.fixture(scope="module")
def d():
    return build_d()


def test_one_seed_gives_one_batch(d):
    assert faults.swap_batch(11, 20, d) == faults.swap_batch(11, 20, d)
    assert faults.swap_batch(11, 20, d) != faults.swap_batch(12, 20, d)


def test_swaps_keep_degrees_and_differ_from_d(d):
    for swap in faults.swap_batch(5, 40, d):
        g = faults.apply_swap(d, swap)
        assert g != d
        assert len(set(g.arcs()) - set(d.arcs())) == 2
        for v in range(g.n):
            assert len(set(g.out[v])) == 3 and len(set(g.inn[v])) == 3
            assert v not in g.out[v]


def test_invalid_swap_is_refused(d):
    u = 0
    t1, t2 = d.out[u][:2]
    with pytest.raises(ValueError):
        faults.apply_swap(d, (u, t1, u, t2))


def test_swap_breaks_action_and_partition(d):
    g = faults.apply_swap(d, faults.swap_batch(3, 1, d)[0])
    checks = {
        c.name: c
        for sel in ("cycles", "voltage")
        for c in verify.run_verification(sel, d=g).checks
    }
    for name in workloads.FAULT_MUST_FAIL:
        assert not checks[name].passed and checks[name].detail


def _payload(fail=()):
    checks = [
        {"name": n, "pass": n not in fail, "detail": "x", "ms": 0}
        for n in workloads.CHECK_NAMES
    ]
    return {"selector": "all", "pass": not fail, "checks": checks}


def test_known_answers():
    assert workloads.wrong_answer("verify_all", 0, _payload()) is None
    assert workloads.wrong_answer("verify_all", 1, _payload()) is not None
    short = _payload()
    short["checks"].pop()
    assert workloads.wrong_answer("verify_all", 0, short) is not None
    uh = {"pass": True, "aut_order": 1008, "failures": []}
    assert workloads.wrong_answer("uh_exhaustive", 0, uh) is None
    assert workloads.wrong_answer("uh_exhaustive", 0, dict(uh, aut_order=504)) is not None
    broken = _payload(workloads.FAULT_MUST_FAIL)
    assert workloads.wrong_answer("fault_injection", None, broken) is None
    assert workloads.wrong_answer("fault_injection", None, _payload()) is not None
    half = _payload(("cycles.arc_partition",))
    assert workloads.wrong_answer("fault_injection", None, half) is not None
    silent = _payload(workloads.FAULT_MUST_FAIL)
    silent["checks"][8]["detail"] = ""
    assert workloads.wrong_answer("fault_injection", None, silent) is not None


def test_tracer_wraps_every_binding_and_restores():
    originals = {
        (cli, "run_verification"): cli.run_verification,
        (verify, "run_verification"): verify.run_verification,
        (voltage, "is_automorphism"): voltage.is_automorphism,
        (digraph, "cycle_arc_cover"): digraph.cycle_arc_cover,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (ns, attr), fn in originals.items():
            assert getattr(ns, attr) is not fn
            assert getattr(ns, attr).__wrapped__ is fn
        verify.run_verification("voltage")
    finally:
        tracer.restore()
    for (ns, attr), fn in originals.items():
        assert getattr(ns, attr) is fn
    # voltage checks reach is_automorphism only through voltage's binding
    assert tracer.calls["autos.is_automorphism"] >= 1
    assert tracer.calls["verify.run_verification"] == 1
    total = sum(tracer.self_s.values())
    assert 0 < total and all(s >= 0 for s in tracer.self_s.values())


def test_missed_binding_fails_the_cross_check():
    calls = {
        "cli.main": 1,
        "verify.run_verification": 1,
        "autos.automorphism_group.n168": 1,
        "autos.automorphism_group.n28": 0,
        "autos.extend_isomorphism": 954,
        "digraph.cycle_arc_cover": 1,
    }
    assert workloads.call_count_errors("uh_exhaustive", calls, 954) == []
    missed = dict(calls, **{"verify.run_verification": 0})
    assert workloads.call_count_errors("uh_exhaustive", missed, 954)
    missed = {k: v for k, v in calls.items() if k != "digraph.cycle_arc_cover"}
    assert workloads.call_count_errors("uh_exhaustive", missed, 954)
    assert workloads.call_count_errors("uh_exhaustive", calls, 953)


def test_rescale_weights_each_stretch_by_its_speed():
    ref = speed.REF_S
    # loop at reference speed, then at half speed: 1 s + 2 s of wall
    marks = [(0.0, ref), (1.0 + ref, ref), (3.0 + 2 * ref, 2 * ref)]
    wall, scaled = speed.rescale(marks)
    assert wall == pytest.approx(3.0)
    assert scaled == pytest.approx(1.0 + 2.0 * 0.75)


def test_speed_clock_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        speed.time.sleep(0.35)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.marks) >= 4
    assert 0.3 < clock.wall_s < 1.0 and clock.ref_s > 0

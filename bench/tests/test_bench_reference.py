"""The reference check: recorded outputs pass, perturbed outputs fail."""

import numpy as np

import run
import workloads as wl


def test_pool_op_reproduces_its_reference_and_a_perturbed_estimate_fails():
    workload = wl.WORKLOADS["car1-walk"]
    refs = wl.load_reference(workload)
    index = 0  # N=128, the cheapest op
    out = workload.run(workload.make_pool()[index])
    assert workload.check(out, refs[index])
    key = next(iter(out))
    for step in (10 * wl.OPT_TOL, -10 * wl.OPT_TOL):
        moved = dict(out)
        moved[key] = out[key] + step * max(1.0, abs(out[key]))
        assert not workload.check(moved, refs[index])
    within = dict(out)
    within[key] = out[key] + 0.1 * wl.OPT_TOL
    assert workload.check(within, refs[index])


def test_missing_estimate_fails():
    workload = wl.WORKLOADS["linear-beta"]
    ref = {"exact.r": 0.9, "modulated.r": 0.91}
    assert not workload.check({"exact.r": 0.9}, ref)


def test_drifter_check_uses_the_objective():
    workload = wl.WORKLOADS["drifter"]
    ref = {"nll": 0.62, "A": 1.2, "lam": 0.3}
    # theta-hat may move along the flat background directions
    assert workload.check({"nll": 0.62, "A": 1.5, "lam": 0.1}, ref)
    assert workload.check({"nll": 0.62 - 1e-3, "A": 1.2, "lam": 0.3}, ref)
    assert not workload.check({"nll": 0.62 + 1e-5, "A": 1.2, "lam": 0.3}, ref)


def test_references_cover_every_pool_op():
    for workload in wl.WORKLOADS.values():
        refs = wl.load_reference(workload)
        assert len(refs) == workload.pool_size
        assert all(np.isfinite(v) for op in refs for v in op.values())


def test_op_order_is_seeded_runs_scored_rounds_first_and_keeps_rounds_whole():
    workload = wl.WORKLOADS["car1-walk"]
    g = len(workload.slots)
    scored = workload.scored_rounds * g

    def take(seed, k):
        order = wl.op_order(workload, seed)
        return [next(order) for _ in range(k)]

    a = take(5, 3 * workload.pool_size)
    assert a == take(5, 3 * workload.pool_size)
    b = take(6, 3 * workload.pool_size)
    assert a != b
    assert sorted(a[:scored]) == sorted(b[:scored]) == list(range(scored))
    assert sorted(a[:workload.pool_size]) == list(range(workload.pool_size))
    assert all(i % g == k % g for k, i in enumerate(a))


class _InstantWorkload:
    """Ops that return at once; the output of op i is its pool index."""

    slots = ("a", "b")
    rounds = 10
    scored_rounds = 4

    def run(self, index):
        return {"x": float(index)}

    def check(self, out, ref):
        return True

    def rel_errors(self, out):
        return [out["x"]]


def test_accuracy_comes_from_the_scored_rounds_however_long_the_run():
    workload = _InstantWorkload()
    pool = list(range(workload.rounds * len(workload.slots)))
    scored = list(range(workload.scored_rounds * len(workload.slots)))
    k = workload.scored_rounds
    short = run.run_window(workload, pool, pool, seed=1, seconds=0.0, min_rounds=k)
    assert len(short["lat"]) == len(scored)
    for seed, seconds in ((1, 0.05), (2, 0.0), (3, 0.05)):
        window = run.run_window(workload, pool, pool, seed, seconds, k)
        assert sorted(window["errs"]) == scored
        assert len(window["lat"]) % len(workload.slots) == 0
    assert len(window["lat"]) > 2 * len(pool)  # wrapped, still scored once

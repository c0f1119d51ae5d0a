"""Self-time arithmetic, wrapper installation and restoration."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from modwhittle import optimize
from modwhittle.core import Series
from modwhittle.likelihood import Car1WhittleObjective
from modwhittle.simulate import simulate_complex_ar1


def brute_self_times(start, end, parent):
    out = []
    for i in range(len(start)):
        kids = sorted((max(start[j], start[i]), min(end[j], end[i]))
                      for j in range(len(start)) if parent[j] == i)
        covered, reach = 0, start[i]
        for s, e in kids:
            if e <= s:
                continue
            covered += max(0, e - max(s, reach))
            reach = max(reach, e)
        out.append(end[i] - start[i] - covered)
    return np.array(out, dtype=float)


def test_self_time_nested_spans():
    # root [0,100] > child [10,60] > grandchild [20,50]; child [70,80]
    start = [0, 10, 20, 70]
    end = [100, 60, 50, 80]
    parent = [-1, 0, 1, 0]
    got = tracing.self_times(start, end, parent)
    np.testing.assert_array_equal(got, [40, 20, 30, 10])


def test_self_time_overlapping_and_clipped_children():
    # children [10,40] and [30,60] overlap; [90,130] runs past its parent
    start = [0, 10, 30, 90, 200, 205]
    end = [100, 40, 60, 130, 210, 209]
    parent = [-1, 0, 0, 0, -1, 4]
    got = tracing.self_times(start, end, parent)
    np.testing.assert_array_equal(got, [100 - 50 - 10, 30, 30, 40, 6, 4])


def test_self_time_matches_brute_force_on_random_forests():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        start = rng.integers(0, 1000, n)
        end = start + rng.integers(0, 300, n)
        parent = np.array([-1] + [int(rng.integers(-1, i)) for i in range(1, n)])
        np.testing.assert_allclose(tracing.self_times(start, end, parent),
                                   brute_self_times(start, end, parent))


def _targets():
    names = [(m, a) for m, a, _ in tracing.SPAN_TARGETS]
    names += [tracing.SBAR_TARGET, *tracing.FIT_TARGETS]
    return [(importlib.import_module(m), a) for m, a in names]


def test_every_target_exists_and_is_restored():
    before = [(mod, attr, getattr(mod, attr)) for mod, attr in _targets()]
    tracer = tracing.Tracer()
    with tracing.patched(tracer.patches()):
        for mod, attr, original in before:
            assert getattr(mod, attr) is not original
    for mod, attr, original in before:
        assert getattr(mod, attr) is original


def test_wrappers_restored_when_the_run_raises():
    before = [(mod, attr, getattr(mod, attr)) for mod, attr in _targets()]
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer().patches()):
            raise RuntimeError("op failed")
    for mod, attr, original in before:
        assert getattr(mod, attr) is original


def _car1_fit_input():
    beta = np.full(255, 0.3)
    data = simulate_complex_ar1(0.7, 1.0, beta, 256, 3)
    return Car1WhittleObjective(Series(data.values, kind="complex"), rotation=None)


def test_traced_fit_forwards_bounds_and_matches_untraced_fit():
    obj = _car1_fit_input()
    init = np.array([0.5, 1.0, 0.2])
    plain = optimize.fit(obj, init, n_starts=2)
    tracer = tracing.Tracer()
    tracer.op_id = 0
    traced_fit = tracer._fit(optimize.fit)
    proxy = tracing.TracedObjective(tracer, obj)
    assert proxy.names == obj.names
    np.testing.assert_array_equal(proxy.lower, obj.lower)
    np.testing.assert_array_equal(proxy.upper, obj.upper)
    res = traced_fit(obj, init, n_starts=2)
    np.testing.assert_array_equal(res.theta_hat.values, plain.theta_hat.values)
    assert list(res.theta_hat.names) == list(obj.names)
    assert tracer.counts["optimize.fits"] == 1
    assert tracer.counts["likelihood.evals"] >= plain.n_evals
    evals = np.count_nonzero(np.array(tracer.names)[np.frombuffer(
        tracer.name_id, dtype=np.int32)] == "likelihood.eval")
    assert evals == tracer.counts["likelihood.evals"]


def test_at_bound():
    assert tracing.at_bound([4.0 - 1e-9], [0.51], [4.0])
    assert not tracing.at_bound([3.9], [0.51], [4.0])
    assert not tracing.at_bound([1.0], [-np.inf], [np.inf])


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_layer_metrics_reports_every_listed_metric_with_zeros_when_bypassed():
    metrics = tracing.layer_metrics(tracing.Tracer(), ops=3, cache_hits=0,
                                    cache_misses=0)
    assert set(metrics) | {"trace.throughput_drop"} == set(tracing.LAYER_METRICS)
    assert all(v == 0 for k, v in metrics.items())


def test_rejected_evaluations_are_counted():
    tracer = tracing.Tracer()
    tracer.op_id = 0

    def objective(theta):
        if theta[0] < 0:
            raise ValueError("outside the model class")
        return np.inf if theta[0] > 1 else 0.5

    proxy = tracing.TracedObjective(tracer, objective)
    assert proxy([0.5]) == 0.5
    assert proxy([2.0]) == np.inf
    with pytest.raises(ValueError):
        proxy([-1.0])
    assert tracer.counts["likelihood.evals"] == 3
    assert tracer.counts["likelihood.rejected"] == 2
    assert len(tracer.start) == 3 and not tracer._stack

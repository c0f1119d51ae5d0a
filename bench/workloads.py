"""The benchmark's workloads: fixed op pools, one op, and the output check.

Each workload owns a pool of op inputs.  The pool is a list of rounds; a round
is one op per *slot* (an N of the study's grid, or a drifter fit mode), so a
round keeps the mix of cheap and expensive ops fixed.  Op inputs are derived
only from (workload, pool index), which is what lets reference outputs be
recorded once per pool op.

The first ``scored_rounds`` rounds of the pool are the scored set: every run
executes them first, in an order the workload seed chooses, and completes
them even if its time is up.  Estimate accuracy is taken from the scored set
only, so it is computed on the same ops however fast a build is.  After the
scored set a run goes on through the other rounds in seed order, stops at the
first round boundary after its time is up, and wraps around the pool if it
runs out.

The drifter scored set is its whole pool: one fit takes 1.7-12 s depending
on the trajectory, so a run of a few fits drawn at random would move its
median by tens of percent from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from modwhittle import drifter as mw_drifter
from modwhittle import simulate as mw_simulate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WARM_UP_INDEX = 2**31  # input index outside every pool
# Documented optimizer error of modwhittle.optimize.fit at its default
# tolerances; an output that moves by more than this counts as failed.
OPT_TOL = 1e-6


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= OPT_TOL * max(1.0, abs(ref))


@dataclass(frozen=True)
class McWorkload:
    """One Monte Carlo replicate per op: ``run_study`` with replicates=1."""

    name: str
    kind: str
    true_params: dict
    process: dict
    estimators: tuple
    slots: tuple  # N of each op in a round
    fit_options: dict
    entropy: int
    rounds: int
    scored_rounds: int  # no more than a run at the recording commit completes

    @property
    def pool_size(self) -> int:
        return self.rounds * len(self.slots)

    def study(self, index: int, n: int | None = None):
        return mw_simulate.McStudy(
            kind=self.kind, true_params=dict(self.true_params),
            process=dict(self.process), estimators=list(self.estimators),
            n_grid=[self.slots[index % len(self.slots)] if n is None else n],
            replicates=1, seed=self.entropy + index,
            fit_options=dict(self.fit_options))

    def make_pool(self) -> list:
        return [self.study(i) for i in range(self.pool_size)]

    def warm_up(self) -> None:
        for n in self.slots:
            self.run(self.study(WARM_UP_INDEX, n))

    def run(self, study) -> dict:
        """theta-hat of every (estimator, true parameter), keyed 'est.param'."""
        report = mw_simulate.run_study(study, threads=1)
        # with one replicate, bias = theta_hat - theta exactly
        return {f"{r['estimator']}.{r['param']}":
                float(study.true_params[r["param"]] + r["bias"])
                for r in report.rows}

    def check(self, out: dict, ref: dict) -> bool:
        return out.keys() == ref.keys() and all(_close(out[k], ref[k]) for k in ref)

    def rel_errors(self, out: dict) -> list:
        errs = []
        for key, value in out.items():
            truth = float(self.true_params[key.split(".", 1)[1]])
            errs.append((value - truth) / truth)
        return errs


@dataclass(frozen=True)
class DrifterInput:
    data: object
    omega_f: np.ndarray
    mode: str


class DrifterWorkload:
    """One ``fit_drifter`` call per op on a synthetic N=4096 trajectory.

    The settings are copied from src/modwhittle/configs/drifter_synthetic.json
    so that a change to the bundled config cannot change the benchmark.
    """

    name = "drifter"
    TRUE_PARAMS = {"A": 1.2, "lam": 1.0 / 3.0, "B": 1.2, "h": 0.7, "alpha": 1.1}
    N = 4096
    DELTA = 1.0 / 12.0
    LAT_START = (3.0, 6.0)
    LAT_END = (17.0, 20.0)
    FREQ_RANGE = (0.0, 2.0)
    FIT_OPTIONS = {"n_starts": 2}
    CHECKED = ("A", "lam")  # B, h, alpha are weakly identified
    ENTROPY = 20261017  # the benchmark's own trajectories, not the config's
    slots = ("modulated", "stationary")
    rounds = 5
    scored_rounds = rounds

    @property
    def pool_size(self) -> int:
        return self.rounds * len(self.slots)

    def trajectory(self, index: int, n: int):
        """Velocities and inertial frequency along a random latitude ramp."""
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.ENTROPY, spawn_key=(index,)))
        lat0 = rng.uniform(*self.LAT_START)
        lat1 = rng.uniform(*self.LAT_END)
        lats = rng.choice([-1.0, 1.0]) * np.linspace(lat0, lat1, n)
        if rng.random() < 0.5:
            lats = lats[::-1].copy()
        wf = np.asarray(mw_drifter.inertial_frequency(lats))
        t = self.TRUE_PARAMS
        data = mw_drifter.simulate_drifter_velocities(
            t["A"], t["lam"], t["B"], t["h"], t["alpha"], wf, self.DELTA, rng)
        return data, wf

    def make_pool(self) -> list:
        pool = []
        for r in range(self.rounds):
            data, wf = self.trajectory(r, self.N)
            pool.extend(DrifterInput(data, wf, mode) for mode in self.slots)
        return pool

    def warm_up(self) -> None:
        # a few simplex steps per mode reach every code path of a full fit
        data, wf = self.trajectory(WARM_UP_INDEX, 256)
        for mode in self.slots:
            self.run(DrifterInput(data, wf, mode), max_iter=20)

    def run(self, inp: DrifterInput, **fit_options) -> dict:
        fitted = mw_drifter.fit_drifter(inp.data, inp.omega_f, mode=inp.mode,
                                        freq_range=self.FREQ_RANGE,
                                        fit_options={**self.FIT_OPTIONS,
                                                     **fit_options})
        out = {"nll": float(fitted.nll)}
        out.update({k: float(fitted.params[k]) for k in self.CHECKED})
        return out

    def check(self, out: dict, ref: dict) -> bool:
        # the objective, not theta-hat: the background parameters are flat in
        # the likelihood, so only a worse optimum is a wrong answer
        return out["nll"] <= ref["nll"] + OPT_TOL * max(1.0, abs(ref["nll"]))

    def rel_errors(self, out: dict) -> list:
        return [(out[k] - self.TRUE_PARAMS[k]) / self.TRUE_PARAMS[k]
                for k in self.CHECKED]


# Why each workload is here is recorded in BENCHMARK.json.  The Monte Carlo
# studies mirror configs/table{1,2,3}_ci.json at this commit; they are copied
# so that a change to the bundled configs cannot change the benchmark.  Pools
# hold more rounds than a 30 s run completes; the scored sets hold at most two
# thirds of the fewest rounds a 20 s run completed at the commit the
# references were recorded at.
WORKLOADS = {
    w.name: w for w in (
        DrifterWorkload(),
        McWorkload(
            name="car1-walk",
            kind="car1-bounded-walk",
            true_params={"r": 0.8, "sigma": 1.0},
            process={"gamma": math.pi / 2, "span": 1.0, "amp": 0.05},
            estimators=("modulated", "stationary"), slots=(128, 512, 2048),
            fit_options={"n_starts": 1}, entropy=101_000_000, rounds=600,
            scored_rounds=150),
        McWorkload(
            name="mask-ar1",
            kind="ar1-bernoulli-mask",
            true_params={"a": 0.8, "sigma": 1.0},
            process={"mean_p": 0.5, "amp_p": 0.25, "omega_p": 2 * math.pi / 10},
            estimators=("modulated",),
            # an N=16384 op costs 7x an N=4096 op; with the two in equal
            # numbers the median would fall in the gap between them
            slots=(4096, 16384, 16384),
            fit_options={"n_starts": 1}, entropy=103_000_000, rounds=60,
            scored_rounds=16),
        McWorkload(
            name="linear-beta",
            kind="car1-linear-beta",
            true_params={"r": 0.9, "sigma": 10.0, "gamma": 0.8, "span": 2.0},
            process={}, estimators=("exact", "stationary", "modulated"),
            slots=(512,), fit_options={"n_starts": 2},
            entropy=102_000_000, rounds=100, scored_rounds=50),
    )
}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(workload) -> list:
    """Recorded outputs of every pool op, in pool order."""
    path = reference_path(workload.name)
    with open(path) as fh:
        obj = json.load(fh)
    ops = obj["ops"]
    if len(ops) != workload.pool_size:
        raise ValueError(f"{path} holds {len(ops)} ops, the pool has "
                         f"{workload.pool_size}; record the reference again")
    return ops


def op_order(workload, seed: int):
    """Endless sequence of pool indices, a round at a time.

    The scored rounds come first, then the other rounds, each part in a
    seed-chosen order; after that whole passes over the pool in seed order.
    """
    rng = np.random.default_rng(seed)
    g, k = len(workload.slots), workload.scored_rounds
    rounds = [*rng.permutation(k), *(k + rng.permutation(workload.rounds - k))]
    while True:
        for r in rounds:
            for s in range(g):
                yield int(r) * g + s
        rounds = rng.permutation(workload.rounds)

"""The benchmark's workloads: seeded op streams over fixed instance universes.

Every workload owns a universe of instances built deterministically from
UNIVERSE_SEED, each with a reference output and a reference cost stored in
refs/<workload>.json.  Instances fall into classes (the observed entries per
column l, or the planted noise size); instance u has the class of slot
u % len(slots).

A run's op stream cycles through the slots, and each visit to a class draws
one of its instances, stratified by reference cost (see Stream).  So the
seed decides which instances are sent and in what order, every run sees the
same mix of cheap and costly ones, and every op can be checked against its
stored reference.

The program under test only ever receives the generated inputs; the op
functions call the library through its module attributes, so the tracer in
spans.py can wrap them.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from robustmc import numeric, robust, sim
from robustmc.pattern import NoiseBudget

UNIVERSE_SEED = 1712_01628
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def instance_seed(workload: str, u: int) -> int:
    """A 32-bit generator seed for universe instance u of a workload."""
    key = [UNIVERSE_SEED, zlib.crc32(workload.encode()), u]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


# --- simulate: one Monte Carlo trial per op, a fresh wide pattern each time ---

SIM_D, SIM_N, SIM_R = 20, 600, 2


def _simulate_input(u: int, l: int):
    return sim.TrialConfig(
        SIM_D, SIM_N, SIM_R, l, NoiseBudget.global_noise(0), trials=1,
        seed=instance_seed("simulate", u),
    )


def _simulate_call(cfg) -> Any:
    out = sim.estimate_pass_probability(cfg)
    if out.indeterminate_count:
        return "indeterminate"
    return "pass" if out.pass_count == 1 else "fail"


# --- verify-finite / verify-unique: exhaustive removal enumeration per op ---

VERIFY_D, VERIFY_R = 8, 2
VERIFY_FINITE_N, VERIFY_UNIQUE_N = 16, 32


def _verify_input(workload: str, N: int):
    def make(u: int, l: int):
        rng = np.random.default_rng(instance_seed(workload, u))
        return sim.sample_pattern(VERIFY_D, N, l, rng)

    return make


def _verdict(v) -> Any:
    removal = v.failing_removal
    cells = None if removal is None else [list(c) for c in removal.sorted_cells()]
    return [v.verdict.value, cells]


def _verify_finite_call(p) -> Any:
    return _verdict(robust.verify_finite(p, VERIFY_R, NoiseBudget.global_noise(1)))


def _verify_unique_call(p) -> Any:
    return _verdict(robust.verify_unique(p, VERIFY_R, NoiseBudget.global_noise(0)))


# --- identify: noise-support recovery on a fully observed generic matrix ---

IDENTIFY_D, IDENTIFY_N, IDENTIFY_R, IDENTIFY_S = 8, 12, 2, 2


@dataclass(frozen=True)
class IdentifyInput:
    observations: dict
    pattern: Any
    planted: tuple


def _identify_input(u: int, planted: int) -> IdentifyInput:
    inst = numeric.generate_instance(
        IDENTIFY_D, IDENTIFY_N, IDENTIFY_R, NoiseBudget.global_noise(planted),
        planted=True, seed=instance_seed("identify", u),
    )
    return IdentifyInput(inst.observations(), inst.pattern, tuple(sorted(inst.noise_support())))


def _identify_call(inp: IdentifyInput) -> Any:
    try:
        support = robust.identify_noise_support(
            inp.observations, inp.pattern, IDENTIFY_R, IDENTIFY_S, fit_tolerance=1e-6
        )
    except robust.NoSupportFoundError:
        return "NoSupportFoundError"
    return [list(c) for c in sorted(support)]


@dataclass(frozen=True)
class Workload:
    name: str
    params: tuple[int, ...]  # per class: l, or the planted noise size
    slots: tuple[int, ...]   # the class of each op in one cycle of the stream
    per_slot: int            # universe instances per slot position
    make: Callable[[int, int], Any]
    call: Callable[[Any], Any]

    def universe_size(self) -> int:
        return self.per_slot * len(self.slots)

    def instance_class(self, u: int) -> int:
        return self.slots[u % len(self.slots)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate", (4, 8, 12, 16, 20), (0, 1, 2, 3, 4), 50, _simulate_input, _simulate_call),
        Workload("verify-finite", (3, 4, 5, 6), (0, 1, 2, 3), 100,
                 _verify_input("verify-finite", VERIFY_FINITE_N), _verify_finite_call),
        Workload("verify-unique", (3, 4, 5), (0, 1, 2), 50,
                 _verify_input("verify-unique", VERIFY_UNIQUE_N), _verify_unique_call),
        Workload("identify", (2, 3), (0, 0, 0, 0, 1), 50, _identify_input, _identify_call),
    )
}


def build_universe(w: Workload) -> list:
    """All inputs of the workload, instance u at index u."""
    return [w.make(u, w.params[w.instance_class(u)]) for u in range(w.universe_size())]


# Instances per stratum, at least: the seed chooses among this many instances
# of nearly the same cost at each visit.
STRATUM_SIZE = 6


def _bit_reversed(k: int, bits: int) -> int:
    return int(format(k, f"0{bits}b")[::-1], 2) if bits else 0


class Stream:
    """Maps op index i of a seeded run to a universe instance.

    A class's instances are sorted by reference cost and cut into a power of
    two of strata.  Successive visits to the class go to the strata in
    bit-reversed order, so any run of visits spreads evenly over the cost
    range; within a stratum, the seed's permutation decides the instance.
    """

    def __init__(self, w: Workload, costs: list[float], seed: int):
        self.slots = w.slots
        self.strata: dict[int, list[list[int]]] = {}
        for c in sorted(set(w.slots)):
            members = [u for _, u in sorted((costs[u], u) for u in range(len(costs)) if w.instance_class(u) == c)]
            bits = max(len(members) // STRATUM_SIZE, 1).bit_length() - 1
            chunks = np.array_split(np.array(members), 1 << bits)
            self.strata[c] = [
                [int(u) for u in np.random.default_rng([seed, c, k]).permutation(chunks[_bit_reversed(k, bits)])]
                for k in range(1 << bits)
            ]

    def instance(self, i: int) -> int:
        cycle, pos = divmod(i, len(self.slots))
        c = self.slots[pos]
        visit = cycle * self.slots.count(c) + self.slots[:pos].count(c)
        strata = self.strata[c]
        stratum = strata[visit % len(strata)]
        return stratum[(visit // len(strata)) % len(stratum)]


# The warm-up op is universe instance 0 whatever the seed, so set-up time
# does not depend on which instances the seed draws.
WARM_UP_INSTANCE = 0


def refs_path(name: str) -> str:
    return os.path.join(REFS_DIR, f"{name}.json")


def load_refs(w: Workload) -> tuple[list, list[float]]:
    """Reference outputs and reference costs in seconds, by instance."""
    with open(refs_path(w.name), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    outputs, costs = doc["outputs"], doc["cost_s"]
    if not len(outputs) == len(costs) == w.universe_size():
        raise RuntimeError(f"{refs_path(w.name)} does not hold {w.universe_size()} instances")
    return outputs, costs


def run_op(w: Workload, inp) -> Any:
    """One op; any exception other than the documented outcomes is a failed op."""
    try:
        return w.call(inp)
    except Exception as exc:  # noqa: BLE001 - a raising op counts as failed, the run goes on
        return {"raised": f"{type(exc).__name__}: {exc}"}

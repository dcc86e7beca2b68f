"""The benchmark's workloads: inputs made from the seed, rounds of operations,
and the check of each operation's output.

A round is a fixed list of operations; a run always completes whole rounds.
An operation is one campaign trial (instance build, path solves, angles,
bound rows), timed between two yields of `run_campaign`, or one call of
`geometry.psd_block_bounds` on a seeded draw.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle
from specangles import campaign, geometry
from specangles.campaign import CampaignConfig, rows_jsonl, run_campaign
from specangles.core import Projector, SymmetricMatrix
from specangles.rng import PortableRng

PLANS = ("convex-separated", "doubly-interleaved", "rank-one")

# The axes of configs/verify500.json, kept here so that the workload stays
# fixed when that file changes.
VERIFY500_AXES = {
    "trials": 500,
    "n": [4, 8, 16, 24, 32],
    "plans": ["convex-separated", "doubly-interleaved", "rank-one", "convex-separated", "rank-one"],
    "v_ratios": [0.05, 0.25, 0.45, 0.65, 0.85, 0.95],
}
VERIFY500_SEED_BASE = 20260501

# n = 48 appears twice so that two thirds of the trials are n = 48: the median
# then lies inside one size class instead of between the slowest n = 48 and
# the fastest n = 64 trial, and the 90th percentile inside the n = 64 class.
# The three ratios put rows on both sides of the corollary (2/pi) and generic
# (0.9097...) hypotheses.
LARGE_N_AXES = {
    "trials": 27,
    "n": [48, 64, 48],
    "plans": list(PLANS),
    "v_ratios": [0.25, 0.65, 0.95],
}

BLOCK_DRAWS = 1000  # one round of block-lemma draws, as acceptance criterion 09

# Fewest operations in a run: enough for at least ten to lie beyond the 90th
# percentile. verify500 runs three rounds: its median trial is an n = 16 trial,
# whose time follows the host's speed, and the host changes speed over tens of
# seconds, so a longer run averages over more of those changes.
MIN_OPS = 101
VERIFY500_MIN_OPS = 3 * VERIFY500_AXES["trials"]


@dataclass
class Op:
    """One operation: `run` is timed, `check` is not and returns problems."""

    run: Callable[[], object]
    check: Callable[[object], list[str]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class InstanceCapture:
    """Keeps the instance each campaign trial builds, for its check.

    Wraps the generator names `specangles.campaign` looks up; the wrapper
    only stores a reference, so it costs a function call per trial.
    """

    NAMES = ("random_instance", "rank_one_instance")

    def __init__(self):
        self.last = None
        self._saved = {}

    def __enter__(self):
        for name in self.NAMES:
            original = getattr(campaign, name)
            self._saved[name] = original

            def capture(*args, _original=original, **kwargs):
                self.last = _original(*args, **kwargs)
                return self.last

            setattr(campaign, name, capture)
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(campaign, name, original)


def trial_specs(config: CampaignConfig) -> list[dict]:
    """Plan, n and v_ratio of each trial in yield order, from the README's
    rule: plans cycle fastest over trials, then v_ratios, then n; trials are
    run in ascending seed order."""
    specs = []
    for k in range(config.trials):
        block = k // len(config.plans)
        specs.append(
            {
                "seed": config.seeds[k],
                "plan": config.plans[k % len(config.plans)],
                "v_ratio": config.v_ratios[block % len(config.v_ratios)],
                "n": config.ns[(block // len(config.v_ratios)) % len(config.ns)],
            }
        )
    return sorted(specs, key=lambda spec: spec["seed"])


class CampaignWorkload:
    campaign = True

    def __init__(self, axes: dict, stride: int, seed_base: int, warm_axes: dict, min_ops: int = MIN_OPS):
        self.axes = axes
        self.min_ops = min_ops
        self.stride = stride
        self.seed_base = seed_base
        self.warm_axes = warm_axes

    def config(self, round_index: int) -> CampaignConfig:
        """Round `round_index`: the axes with explicit seeds. The campaign
        runs trials in ascending seed order, so the trial run j-th is
        k = stride * j mod trials; with the stride coprime to the trial count
        this visits every trial once and mixes the size classes over the
        round instead of running each class in one block."""
        trials = self.axes["trials"]
        base = self.seed_base + round_index * trials
        seeds = [0] * trials
        for j in range(trials):
            seeds[self.stride * j % trials] = base + j
        return CampaignConfig.from_dict({**self.axes, "seeds": seeds})

    def warm_up(self) -> str:
        """Run the small warm-up campaign; digest of its JSONL rows."""
        config = CampaignConfig.from_dict({**self.warm_axes, "seed_base": self.seed_base - 1000})
        return digest(rows_jsonl(list(run_campaign(config))))

    def round_ops(self, round_index: int) -> Iterator[Op]:
        config = self.config(round_index)
        with InstanceCapture() as capture:
            trials = run_campaign(config)
            for spec in trial_specs(config):

                def check(report, spec=spec):
                    inst = capture.last
                    capture.last = None
                    if inst is None or inst.label != report.instance_id:
                        return ["no instance captured for this trial"]
                    return oracle.check_trial(
                        spec, inst.a.entries, inst.v.entries, inst.sigma_indices, report
                    )

                yield Op(run=lambda: next(trials), check=check)


def block_draw(index: int, base: int) -> tuple[SymmetricMatrix, Projector]:
    """Draw `index` of a block-lemma round, made as criterion 09 makes it."""
    n = 2 + index % 9
    rng = PortableRng(base + index)
    g = rng.gaussians(n * n).reshape(n, n)
    v = SymmetricMatrix(g @ g.T)
    cols = rng.haar_orthogonal(n)[:, : 1 + index % (n - 1)]
    return v, Projector(SymmetricMatrix(cols @ cols.T), rank=cols.shape[1])


class BlockLemmaWorkload:
    campaign = False
    min_ops = MIN_OPS

    def __init__(self, seed_base: int):
        self.seed_base = seed_base

    def warm_up(self) -> str:
        """Solve one draw of each size; digest of the triples."""
        triples = [
            geometry.psd_block_bounds(v, q)
            for v, q in (block_draw(i, self.seed_base - 1000) for i in range(18))
        ]
        return digest(json.dumps([[repr(float(x)) for x in t] for t in triples]))

    def round_ops(self, round_index: int) -> Iterator[Op]:
        base = self.seed_base + round_index * BLOCK_DRAWS
        draws = [block_draw(i, base) for i in range(BLOCK_DRAWS)]
        for v, q in draws:
            yield Op(
                run=lambda v=v, q=q: geometry.psd_block_bounds(v, q),
                check=lambda triple, v=v, q=q: oracle.check_block(
                    v.entries, q.matrix.entries, triple
                ),
            )


WORKLOADS = ("verify500", "campaign-large-n", "block-lemma")


def make(name: str, seed: int):
    """Build workload `name` for benchmark seed `seed`."""
    if name == "verify500":
        warm = {"trials": 15, "n": VERIFY500_AXES["n"], "plans": list(PLANS), "v_ratios": [0.45]}
        return CampaignWorkload(
            VERIFY500_AXES, 37, VERIFY500_SEED_BASE + 100_000 * seed, warm, VERIFY500_MIN_OPS
        )
    if name == "campaign-large-n":
        warm = {"trials": 3, "n": [48], "plans": list(PLANS), "v_ratios": [0.45]}
        return CampaignWorkload(LARGE_N_AXES, 10, 30_000_000 + 100_000 * seed, warm)
    if name == "block-lemma":
        return BlockLemmaWorkload(7000 + 1_000_000 * seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def setup(name: str, seed: int):
    """Build the workload and run its warm-up: (workload, warm-up digest)."""
    workload = make(name, seed)
    return workload, workload.warm_up()


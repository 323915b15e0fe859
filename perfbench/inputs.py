"""Seeded inputs of the three workloads.

Everything the program receives is generated here from the workload seed:
the same seed gives the same inputs, another seed gives other inputs.  The
generators take plain integers and return plain tuples so the smoke
checks can compare them without importing the program.
"""

from __future__ import annotations

import random

#: the seven Table 3 models, in the paper's order.
TABLE3_MODELS = (
    "MLP-500-100",
    "LeNet",
    "CIFAR-VGG17",
    "AlexNet",
    "VGG16",
    "GoogLeNet",
    "ResNet152",
)

#: Table 3 points whose P&R completes at the default channel width.
PNR_POINTS = (
    ("GoogLeNet", 1),
    ("CIFAR-VGG17", 1),
    ("LeNet", 64),
    ("MLP-500-100", 64),
)

#: the paper's duplication degree for Table 3.
TABLE3_DUPLICATION = 64

SERVE_DUPLICATIONS = tuple(range(1, 65))
#: Zipf exponent of the keys' popularity.
SERVE_ZIPF_S = 1.0

SWEEP_DUPLICATIONS = (1, 2, 4, 8, 16, 32, 64)
SWEEP_CHIPS = (None, 2, 4)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def table3_order(seed: int) -> list[tuple[str, str, int]]:
    """One pass of the table3-pnr workload: ``(kind, model, duplication)``.

    The points are the paper's; the seed sets the order they compile in.
    ``kind`` is ``"pnr"`` (full compile with P&R and bitstream) or
    ``"front"`` (front end at the paper's 64x duplication).
    """
    points = [("pnr", m, d) for m, d in PNR_POINTS]
    points += [("front", m, TABLE3_DUPLICATION) for m in TABLE3_MODELS]
    _rng(seed, "table3").shuffle(points)
    return points


def serve_keys() -> list[tuple[str, int]]:
    """Every key the service is asked for: 7 models x duplication 1..64."""
    return [(m, d) for m in TABLE3_MODELS for d in SERVE_DUPLICATIONS]


def serve_popularity() -> list[tuple[str, int]]:
    """Every serve key, from most to least popular.

    The order is part of the workload's definition, not of its seed: every
    seed draws from the same key distribution, so a held-out seed changes
    the request sequence without changing which keys are hot.
    """
    ranking = serve_keys()
    _rng(0, "serve-popularity").shuffle(ranking)
    return ranking


def serve_step(seed: int, step: int, rate: float, count: int) -> list[tuple[float, str, int]]:
    """Requests of one ladder step: ``(due offset s, model, duplication)``.

    Arrivals are Poisson at ``rate``; keys are Zipf-distributed over the
    fixed popularity order of all 448 keys.
    """
    ranking = serve_popularity()
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(ranking))]
    rng = _rng(seed, f"serve-step-{step}")
    keys = rng.choices(ranking, weights=weights, k=count)
    due, requests = 0.0, []
    for model, duplication in keys:
        due += rng.expovariate(rate)
        requests.append((due, model, duplication))
    return requests


def sweep_points(seed: int, batch: int) -> list[tuple[str, int, int | None]]:
    """The 147 design points ``(model, duplication, num_chips)`` of one
    dse-sweep batch, in a seed- and batch-drawn order."""
    points = [
        (m, d, c) for m in TABLE3_MODELS for d in SWEEP_DUPLICATIONS for c in SWEEP_CHIPS
    ]
    _rng(seed, f"sweep-{batch}").shuffle(points)
    return points

"""The four workloads: inputs from a seed, and the query each one runs.

Sizes are given at ``--scale 1.0`` (the sizes the workloads were designed
at); :data:`DEFAULT_SCALE` shrinks every stream uniformly so that a run of
the whole benchmark fits the driver's time budget on a 2-core box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import AQKSlackHandler, ContinuousQuery, KSlackHandler, QualityTarget, sliding
from repro.streams import (
    BurstyDelay,
    DelayModel,
    ExponentialDelay,
    MixtureDelay,
    ParetoDelay,
    StreamElement,
    generate_stream,
    inject_disorder,
)

#: One timed repeat is about 1-1.6 s at this scale on the reference box.
DEFAULT_SCALE = 0.4

#: theta on the workloads whose slack covers every delay: results must
#: equal the reference, so no window may be off by more than rounding.
EXACT_THETA = 1e-9

AGGREGATE = "sum"

#: The exact workloads cap their Exp(0.25) delays here (a cap one element in
#: a few hundred thousand reaches) and buffer with a fixed K just above it:
#: nothing is late for any seed, and K — hence the simulated latency — does
#: not move with the largest delay a seed happens to draw.
DELAY_CAP_S = 3.0
EXACT_SLACK_S = DELAY_CAP_S + 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; every field is part of its identity."""

    name: str
    why: str
    duration_s: float
    rate: float
    n_keys: int
    delay: str
    window: tuple[float, float]
    mode: str
    batch_size: int
    #: Quality target for ``with_quality``; ``None`` means fixed K-slack above
    #: every delay, i.e. nothing is late and results are exact.
    theta: float | None
    shards: int = 0
    #: Whether the open-loop paced pass runs (the two overlap-64 workloads).
    paced: bool = False

    @property
    def exact(self) -> bool:
        return self.theta is None

    @property
    def check_theta(self) -> float:
        return EXACT_THETA if self.theta is None else self.theta


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="naive_ingest_aqk",
        why="default ContinuousQuery().run() path: naive operator write path (per-window add) "
        "with AQ-K adaptation second; the paper's quality/latency contract is read here",
        duration_s=1200.0, rate=100.0, n_keys=8, delay="mix",
        window=(10.0, 2.0), mode="naive", batch_size=0, theta=0.02,
    ),
    Workload(
        name="tree_close_ov64",
        why="overlap-64 tree operator read path (assemble, close, retire; ~1M merges at scale "
        "1), little handler work; exact results; single-threaded baseline of the sharded job",
        duration_s=480.0, rate=200.0, n_keys=16, delay="exp",
        window=(8.0, 0.125), mode="tree", batch_size=512, theta=None, paced=True,
    ),
    Workload(
        name="sharded_proc2_ov64",
        why="same inputs and query on 2 process shards: route, encode, IPC, decode, worker and "
        "merge do the work and all emission is deferred to finish",
        duration_s=480.0, rate=200.0, n_keys=16, delay="exp",
        window=(8.0, 0.125), mode="tree", batch_size=512, theta=None, shards=2,
        paced=True,
    ),
    Workload(
        name="burst_adapt_tree",
        why="delay burst in the middle third: AQ-K handler and sorting buffer dominate (regime "
        "switch, large heap, feedback loop), the operator does little",
        duration_s=900.0, rate=300.0, n_keys=4, delay="bursty",
        window=(8.0, 0.5), mode="tree", batch_size=0, theta=0.05,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Inputs:
    """Generated inputs of one workload run."""

    elements: list[StreamElement]
    #: Arrival timestamps in feed order (ascending).
    arrivals: np.ndarray
    generate_s: float

    def prefix(self, count: int) -> "Inputs":
        """The first ``count`` elements, for the short set-up runs."""
        return Inputs(self.elements[:count], self.arrivals[:count], 0.0)


class CappedDelay(DelayModel):
    """``inner``'s delays, none above ``cap`` seconds."""

    def __init__(self, inner: DelayModel, cap: float) -> None:
        self.inner = inner
        self.cap = cap

    def sample(self, rng: np.random.Generator, event_time: float) -> float:
        return min(self.inner.sample(rng, event_time), self.cap)

    def describe(self) -> str:
        return f"min({self.inner.describe()}, {self.cap:g}s)"


def _delay_model(workload: Workload, duration: float) -> DelayModel:
    if workload.delay == "mix":
        # The repository's default evaluation mix: fast path + heavy tail.
        return MixtureDelay(
            [(0.9, ExponentialDelay(0.2)), (0.1, ParetoDelay(shape=1.8, scale=1.0))]
        )
    if workload.delay == "exp":
        return CappedDelay(ExponentialDelay(0.25), DELAY_CAP_S)
    if workload.delay == "bursty":
        return BurstyDelay(
            ExponentialDelay(0.1), ExponentialDelay(3.0), duration / 3, 2 * duration / 3
        )
    raise ValueError(f"unknown delay spec {workload.delay!r}")


def generate(workload: Workload, seed: int, scale: float) -> Inputs:
    """Arrival-ordered stream of ``workload`` for ``seed``; same seed, same stream.

    Workloads that share generator parameters (the overlap-64 pair) get
    identical streams for the same seed, so their results can be compared.
    """
    start = time.perf_counter()
    duration = workload.duration_s * scale
    rng = np.random.default_rng(seed)
    in_order = generate_stream(
        duration=duration,
        rate=workload.rate,
        rng=rng,
        keys=tuple(f"k{index}" for index in range(workload.n_keys)),
    )
    elements = inject_disorder(in_order, _delay_model(workload, duration), rng)
    generate_s = time.perf_counter() - start
    arrivals = np.fromiter(
        (element.arrival_time for element in elements), dtype=float, count=len(elements)
    )
    return Inputs(elements, arrivals, generate_s)


def make_handler(workload: Workload, aggregate):
    """The handler ``build_query`` would configure, as an instance to wrap.

    Mirrors ``with_quality`` / ``with_slack``; the transparency check (a
    proxied pass must emit bit-identical results) guards the mirroring.
    """
    if workload.theta is None:
        return KSlackHandler(EXACT_SLACK_S)
    return AQKSlackHandler(
        target=QualityTarget(workload.theta),
        aggregate=aggregate,
        window_size=workload.window[0],
    )


def build_query(
    workload: Workload, *, handler=None, aggregate=None, executor=None
) -> ContinuousQuery:
    """The workload's query; ``handler``/``aggregate``/``executor`` are the
    public seams a proxy goes through (``None`` = what the query names)."""
    query = (
        ContinuousQuery()
        .window(sliding(*workload.window))
        .aggregate(aggregate if aggregate is not None else AGGREGATE)
        .mode(workload.mode)
    )
    if handler is not None:
        query.with_handler(handler)
    elif workload.theta is not None:
        query.with_quality(workload.theta)
    else:
        query.with_slack(EXACT_SLACK_S)
    if workload.shards:
        query.shards(workload.shards).executor(executor)
    return query

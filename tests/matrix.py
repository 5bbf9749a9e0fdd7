"""The execution matrix: draws of cells and the relations they must meet.

A draw is a *base* (stream, window, aggregate, disorder handler) and a
*cell* of execution axes on top of it: store, driver, shards, restore,
observe, sanitize.  :func:`check` runs the cell through
:func:`run_pipeline` and holds it to every relation its draw qualifies
for: R1 exact axes, R2 store, R3 shards, R4 merge order, R5 oracle, R6
feedback default (the table is in ``docs/INTERNALS.md``, "The execution
matrix").  Handler
factories are module-level partials, so sharded cells pickle.

``tests/property/test_execution_matrix.py`` draws every axis at once; the
equivalence properties of the other ``tests/property`` files pin one axis
or aggregate family with :func:`draws`' arguments and check the same way.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import sanitize_operator
from repro.core.aqk import AQKSlackHandler
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.checkpoint import dumps_state, loads_state, save_checkpoint
from repro.engine.handlers import KSlackHandler, MPKSlackHandler, NoBufferHandler
from repro.engine.oracle import oracle_results
from repro.engine.parallel import ShardExecutor, ShardedWindowOperator, stable_shard
from repro.engine.pipeline import run_pipeline
from repro.engine.watermarks import FixedLagWatermarkHandler, HeuristicWatermarkHandler
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream
from tests.cell_cases import cell_cases
from tests.conftest import emitted_window_errors, nan_equal
from tests.fold_cases import fold_cases

EXACT = ("count", "min", "max", "distinct", "median")  # folds that do not re-associate
HANDLERS = (
    "no-buffer", "k-slack", "mp-k-slack", "fixed-lag", "heuristic",
    "aqk-quality", "aqk-budget",
)
ADAPTIVE = ("mp-k-slack", "aqk-quality", "aqk-budget")
FEEDBACK_FREE = tuple(h for h in HANDLERS if not h.startswith("aqk"))  # R2 applies
WINDOWS = [(4.0, 1.0), (10.0, 2.0), (6.0, 3.0), (5.0, 5.0), (8.0, 0.5)]
COARSE = st.integers(min_value=0, max_value=12).map(float)  # distinct values collide
WIDE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def handler_factory(name, k, aggregate, size):
    """A zero-argument factory for the named handler; it pickles."""
    aqk = partial(
        AQKSlackHandler, aggregate=make_aggregate(aggregate), window_size=size,
        warmup_elements=20, adapt_interval=0.5,
    )
    return {
        "no-buffer": NoBufferHandler,
        "k-slack": partial(KSlackHandler, k),
        "mp-k-slack": MPKSlackHandler,
        "fixed-lag": partial(FixedLagWatermarkHandler, 0.8),
        "heuristic": HeuristicWatermarkHandler,
        "aqk-quality": partial(aqk, QualityTarget(0.05)),
        "aqk-budget": partial(aqk, LatencyBudget(1.0)),
    }[name]


def split_by_seq(element):
    """A routing key that splits every key over the shards."""
    return element.seq % 3


class SmallChunks(ShardExecutor):
    """In-process shards at the pool's chunk size: a restore lands mid-session."""

    chunk_size = 16


@dataclass(frozen=True)
class Base:
    stream: list[StreamElement]
    size: float
    slide: float
    aggregate: str
    handler: str
    k: float = 0.0
    feedback_horizon: float | None = None
    track_feedback: bool | None = True  # None: the handler's takes_feedback

    @property
    def max_delay(self) -> float:
        return max(e.arrival_time - e.event_time for e in self.stream)

    @property
    def takes_feedback(self) -> bool:
        """What the handler declares (``track_feedback=None`` follows it)."""
        return handler_factory(self.handler, self.k, self.aggregate, self.size)().takes_feedback

    @property
    def covered(self) -> bool:
        """Fixed K-slack above every element's delay: nothing is late."""
        return self.handler == "k-slack" and self.k > self.max_delay


def covering(base):
    """``base`` under fixed K-slack above every delay: R5 applies."""
    return replace(base, handler="k-slack", k=base.max_delay + 1e-6)


@dataclass(frozen=True)
class Cell:
    store: str = "naive"
    batch: int = 0  # run_pipeline's batch size; 0 drives scalar process
    #: Inside a chunk the verb alternates at every cut, starting with
    #: ``process`` per element when ``scalar_first``, else ``process_many``.
    cuts: tuple[int, ...] = ()
    scalar_first: bool = False
    shards: int = 0  # 0: unsharded
    split_key: bool = False
    executor: str = "serial"
    restore: int | None = None  # snapshot the operator after this many elements
    observe: bool = False
    sanitize: bool = False

    def reference(self) -> "Cell":
        """The R1 reference: every exact axis at its default."""
        return replace(
            self, batch=0, cuts=(), scalar_first=False, executor="serial",
            restore=None, observe=False, sanitize=False,
        )


BASE_FIELDS = {f.name for f in fields(Base)}


class CurrentHandler:
    """The handler of whichever operator the driver holds now."""

    def __init__(self, driven):
        self._driven = driven

    def __getattr__(self, name):
        return getattr(self._driven.inner.handler, name)


class Driven:
    """The cell's operator as ``run_pipeline`` sees it: chunks cut at the
    cuts, each piece handed on by the verb in force, and at the restore cut
    a ``dumps_state`` / ``loads_state`` round trip.  An operator holding a
    process pool must refuse the checkpoint instead."""

    def __init__(self, operator, cell, checkpoint):
        self.inner = operator
        self.handler = CurrentHandler(self)
        self._cell = cell
        self._checkpoint = checkpoint
        self._seen = 0
        self._tracer = None
        self._registry = None

    stats = property(lambda self: self.inner.stats)

    def set_tracer(self, tracer):
        self._tracer = tracer
        self.inner.set_tracer(tracer)

    def set_registry(self, registry):
        self._registry = registry
        if hasattr(self.inner, "set_registry"):
            self.inner.set_registry(registry)

    def configure_sanitizer(self):
        self.inner = sanitize_operator(self.inner)

    def _maybe_restore(self):
        cell = self._cell
        if self._seen != cell.restore:
            return
        if cell.shards and cell.executor == "process":
            with pytest.raises(ConfigurationError, match="does not pickle"):
                save_checkpoint(self.inner, self._checkpoint)
            assert not self._checkpoint.exists()
        else:
            self.inner = loads_state(dumps_state(self.inner))
            if self._tracer is not None:  # observers are not state: re-attach
                self.inner.set_tracer(self._tracer)
            if self._registry is not None:
                self.set_registry(self._registry)

    def process(self, element):
        self._maybe_restore()
        self._seen += 1
        return self.inner.process(element)

    def process_many(self, elements):
        start, end, results = self._seen, self._seen + len(elements), []
        marks = {*self._cell.cuts, self._cell.restore} - {None}
        for stop in sorted({m for m in marks if start < m < end} | {end}):
            self._maybe_restore()
            piece = elements[self._seen - start : stop - start]
            if self._cell.scalar_first != bisect_right(self._cell.cuts, self._seen) % 2:
                for element in piece:
                    results += self.inner.process(element)
            else:
                results += self.inner.process_many(piece)
            self._seen = stop
        return results

    def finish(self):
        self._maybe_restore()
        return self.inner.finish()


def run(base, cell, pool=None, checkpoint=None, stream=None):
    """Run ``cell`` over the base stream (or ``stream``, a part of it)."""
    assigner = SlidingWindowAssigner(base.size, base.slide)
    factory = handler_factory(base.handler, base.k, base.aggregate, base.size)
    feedback = dict(feedback_horizon=base.feedback_horizon, track_feedback=base.track_feedback)
    if cell.shards:
        operator = ShardedWindowOperator(
            cell.shards, assigner, make_aggregate(base.aggregate), factory,
            mode=cell.store, key_fn=split_by_seq if cell.split_key else None,
            executor=pool if cell.executor == "process" else SmallChunks(), **feedback,
        )
    else:
        operator = WindowAggregateOperator(
            assigner, make_aggregate(base.aggregate), factory(), mode=cell.store, **feedback
        )
    driven = Driven(operator, cell, checkpoint)
    recorder = TraceRecorder(detail=True) if cell.observe else None
    registry = MetricsRegistry() if cell.observe else None
    output = run_pipeline(
        list(base.stream if stream is None else stream), driven, batch_size=cell.batch,
        sanitize=cell.sanitize, trace=recorder, registry=registry,
    )
    if cell.observe:
        assert recorder.events
        assert registry.counter("pipeline.elements_in").value == output.metrics.n_elements
        assert registry.counter("pipeline.results_out").value == output.metrics.n_results
        if cell.shards:  # every routed element reached a shard that reports it
            assert sum(
                value for name, value in registry.snapshot().items()
                if name.startswith("shard.") and name.endswith(".elements_in")
            ) == output.metrics.n_elements
    metrics = output.metrics  # results compare field by field: emit times, flags and all
    observable = (output.results, output.observed_errors, metrics.late_dropped,
                  metrics.released_count, getattr(driven.handler, "adaptations", None))
    return output.results, observable, recorder


def assert_windows(got, expected, exact, complete=True):
    """``got`` has ``expected``'s windows, counts and values (bitwise when
    ``exact``, else within 1e-6).  Not ``complete``: it may have more
    windows and larger counts, and where a count is equal, so is the value."""
    assert got.keys() == expected.keys() if complete else got.keys() >= expected.keys()
    for slot, (value, count) in expected.items():
        got_value, got_count = got[slot]
        assert got_count == count if complete else got_count >= count
        if got_count == count and exact:
            assert nan_equal(got_value, value)
        elif got_count == count:
            assert abs(got_value - value) <= 1e-6 * max(1.0, abs(value))


def values(results):
    return {(r.key, r.window): (r.value, r.count) for r in results}


def check(base, cell, pool=None, checkpoint=None):
    """Run ``cell`` and hold it to every relation its draw qualifies for;
    return what R1 compares."""
    results, observable, __ = run(base, cell, pool, checkpoint)
    got = values(results)
    exact = base.aggregate in EXACT
    reference = cell.reference()
    if reference != cell:  # R1
        assert nan_equal(observable, run(base, reference)[1])

    if base.track_feedback is None and not base.takes_feedback:  # R6
        untracked = run(replace(base, track_feedback=False), reference)[1]
        assert nan_equal(observable, untracked) and not observable[1]

    if cell.store == "tree" and not base.handler.startswith("aqk"):  # R2
        scored = base.track_feedback
        if scored is None:
            scored = base.takes_feedback
        naive, __, trace = run(base, replace(reference, store="naive", observe=scored))
        assert_windows(got, values(naive), exact)
        if scored:  # the naive store also scores the windows it missed
            assert nan_equal(sorted(emitted_window_errors(trace)), sorted(observable[1]))

    if cell.shards:
        ends = [(r.window.end, r.window.start, repr(r.key)) for r in results]  # R4
        assert ends == sorted(ends) and len(set(ends)) == len(ends)  # one per group
        assert [r.emit_time for r in results] == sorted(r.emit_time for r in results)
        flushed = [r.flushed for r in results]
        assert flushed == sorted(flushed)  # the flushed results are a suffix
        keyed = not cell.split_key and None not in {e.key for e in base.stream}
        expected = []
        if keyed:  # R3: one run per shard's substream, bitwise whatever the aggregate
            for shard in range(cell.shards):
                part = [e for e in base.stream if stable_shard(e.key, cell.shards) == shard]
                expected += run(base, Cell(store=cell.store), stream=part)[0] if part else []
            assert_windows(got, values(expected), exact=True)
        elif base.handler == "k-slack":  # R3 for split groups: shard frontiers lag
            expected = run(base, Cell(store=cell.store))[0]
            assert_windows(got, values(expected), exact, complete=base.covered)
        emits = {(r.key, r.window): (r.emit_time, r.flushed) for r in results}
        for r in expected if keyed or base.covered else []:
            emit_time, flushed = emits[(r.key, r.window)]
            assert emit_time >= r.emit_time and (flushed or not r.flushed)

    if base.covered:  # R5
        assigner = SlidingWindowAssigner(base.size, base.slide)
        truth = oracle_results(base.stream, assigner, make_aggregate(base.aggregate))
        assert_windows(got, truth, exact)
    return observable


# --------------------------------------------------------------------- #
# draws


@st.composite
def free_streams(draw, keys=None):
    """Arrival-ordered streams: bounded delays, a key style (``keys`` fixes
    it), and a hole in event time that a frontier jumps over in one step."""
    styles = [("a", "b", "c", "d"), (None,), ("a", None, "b"), ("hot",)]
    keys = keys or draw(st.sampled_from(styles))
    horizon, max_delay = draw(st.sampled_from([(40.0, 8.0), (1000.0, 50.0)]))
    row = st.tuples(
        st.floats(min_value=0.0, max_value=horizon),
        st.floats(min_value=0.0, max_value=max_delay),
        draw(st.sampled_from([COARSE, WIDE])),
        st.sampled_from(keys),
    )
    rows = draw(st.lists(row, min_size=1, max_size=60))
    gap_at = draw(st.floats(min_value=0.0, max_value=horizon))
    gap = draw(st.sampled_from([0.0, 7.5, 30.0]))
    elements = []
    for seq, (ts, delay, value, key) in enumerate(sorted(rows, key=lambda r: r[:3])):
        ts += gap if ts > gap_at else 0.0
        elements.append(
            StreamElement(event_time=ts, value=value, arrival_time=ts + delay, key=key, seq=seq)
        )
    return sorted(elements, key=StreamElement.arrival_sort_key)


def generated_stream(seed):
    """A few hundred elements: long enough for dozens of AQ-K rounds."""
    rng = np.random.default_rng(seed)
    stream = generate_stream(duration=20, rate=15, rng=rng, keys=("a", "b", "c"))
    return inject_disorder(stream, ExponentialDelay(0.8), rng)


@st.composite
def bases(draw, source=None, keys=None):
    """``source`` fixes where the stream comes from; ``keys``, the free
    streams' key style."""
    if source is None:
        source = "free" if keys else draw(st.sampled_from(["free", "generated", "fold", "cell"]))
    if source in ("fold", "cell"):
        built = fold_cases if source == "fold" else cell_cases
        case = draw(built(draw(st.sampled_from([COARSE, WIDE]))))
        stream, (size, slide), k = case.stream, (case.size, case.slide), case.slack
    else:
        if source == "free":
            stream = draw(free_streams(keys))
        else:
            stream = generated_stream(draw(st.integers(min_value=0, max_value=50)))
        size, slide = draw(st.sampled_from(WINDOWS))
        k = max(e.arrival_time - e.event_time for e in stream) + 1e-6
    # A long stream is there for the handlers that adapt over it; fixed
    # K-slack, whose K may cover every delay, is half of the rest.
    handlers = st.sampled_from(HANDLERS) | st.just("k-slack")
    return Base(
        stream, size, slide,
        aggregate=draw(st.sampled_from(EXACT + ("sum", "mean"))),
        handler=draw(st.sampled_from(ADAPTIVE) if source == "generated" else handlers),
        k=draw(st.sampled_from([k, 0.0]) | st.floats(min_value=0.0, max_value=5.0)),
        feedback_horizon=draw(st.sampled_from([None, size])),
        track_feedback=draw(st.sampled_from([None, True, False])),
    )


@st.composite
def draws(draw, executor="serial", driver=None, shards=None, source=None, keys=None, **pins):
    """``(base, cell)``: process cells shard 2 to 4 ways, the others 0 to 4.

    ``driver`` fixes the driver, ``source`` and ``keys`` the stream (see
    :func:`bases`); ``shards`` and each of ``pins`` (a :class:`Base` or
    :class:`Cell` field) name the strategy that axis is drawn from instead.
    """
    base = draw(bases(source, keys))
    base = replace(base, **{f: draw(s) for f, s in pins.items() if f in BASE_FIELDS})
    n = len(base.stream)
    process = executor == "process"
    if shards is None:
        shards = st.integers(2, 4) if process else st.sampled_from([0, 0, 1, 2, 3, 4])
    shards = draw(shards)
    restore = draw(st.none() | st.none() | st.integers(min_value=0, max_value=n))
    cell = Cell(
        store=draw(st.sampled_from(["naive", "tree"])),
        shards=shards,
        split_key=shards > 0 and draw(st.integers(0, 3)) == 0,
        executor=executor,
        restore=restore,
        observe=draw(st.booleans()),
        sanitize=draw(st.booleans()),
    )
    cell = replace(cell, **{f: draw(s) for f, s in pins.items() if f not in BASE_FIELDS})
    driver = driver or draw(st.sampled_from(["scalar", "batched", "cuts"]))
    if driver == "batched":
        batch = st.sampled_from([8, 16]) | st.integers(min_value=2, max_value=n + 10)
        cell = replace(cell, batch=draw(batch))
    elif driver == "cuts":
        cuts = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=20))
        scalar_first = draw(st.booleans())
        cell = replace(cell, batch=n + 1, cuts=tuple(sorted(set(cuts))), scalar_first=scalar_first)
    return base, cell


#: Each property's budget; the full matrix draws more.
MATRIX = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
#: Released on arrival, 9.5 lands below the key's range (ends 11..14)
#: while its window [6, 10) is still open: the range must grow down.
REWIND = [
    StreamElement(event_time=10.5, value=1.0, arrival_time=10.5, seq=0),
    StreamElement(event_time=9.5, value=1.0, arrival_time=10.7, seq=1),
]
#: One hot key over 4 shards: three shards stay empty.
HOT_KEY = [
    StreamElement(event_time=0.7 * i, value=i % 5.0, arrival_time=0.7 * i + 1, key="hot", seq=i)
    for i in range(40)
]
#: process and process_many interleaved while K grows: each bulk call
#: must clamp its frontier to the one the calls before it left.
INTERLEAVED = Cell(batch=16, cuts=(50, 100, 150, 200), scalar_first=True, sanitize=True)

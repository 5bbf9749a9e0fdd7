"""Process-pool shard execution: true multicore parallelism for shards.

The in-process executor in :mod:`repro.engine.parallel` runs every shard
on the coordinator's core, so sharding buys algorithmic wins (smaller
per-shard windows) but no CPU parallelism — E21's serial rows measure
sharded(4) *slower* than a single tree.  :class:`ProcessShardExecutor` uses the
cores: a persistent warm pool of spawn-started worker processes each
drives a subset of the shards on the exact same
:class:`~repro.engine.parallel.ShardSession` the in-process executor
drives, so results are bit-identical across executors because both run
the same lines (the process cells of the execution matrix,
``tests/property/test_process_equivalence.py``).

Three design points distinguish this from ``multiprocessing.Pool.map``:

* **Chunked, incremental dispatch.**  The coordinator ships each shard's
  elements in fixed-size chunks *while routing is still in progress*
  (the executor seam: ``begin``/``dispatch``/``collect``), so workers
  compute during ingest instead of idling until stream end.
* **Compact wire encoding.**  Chunks cross the process boundary as a
  handful of ``array`` buffers (event times, arrivals, seqs, float
  values) plus at most two pickles per chunk (a non-float value list and
  a unique-key table) — never one pickle per element.  The module-level
  :data:`CODEC_STATS` probe counts pickle calls so tests can assert the
  contract.
* **Columnar returns.**  A worker sends each shard's
  :class:`~repro.engine.parallel._ShardRun` back with one pickle
  (:func:`encode_run`): result columns and frontier timelines are
  ``array`` buffers, and per-shard trace events (re-timestamped into the
  coordinator's clock by ``TraceRecorder.absorb``) ride in the same
  record.

Failure handling: a worker exception is reported with its full traceback
and raised on the coordinator as
:class:`~repro.errors.ShardWorkerError`; a worker that dies without
reporting (crash, ``os._exit``, OOM kill) is detected by liveness
polling and raised with its exit code and owned shards.  Handlers,
assigners and aggregates that cannot pickle are rejected at *build* time
with a clear :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import struct
import traceback
from array import array
from dataclasses import dataclass, replace
from functools import partial
from queue import Empty
from typing import Any, Iterable, Sequence, cast

from repro.engine.checkpoint import dumps_state, loads_state
from repro.engine.parallel import (
    DEFAULT_CHUNK_SIZE,
    ShardExecutor,
    ShardSession,
    ShardSpec,
    _ShardRun,
)
from repro.errors import ConfigurationError, ShardWorkerError
from repro.streams.element import StreamElement

__all__ = [
    "CODEC_STATS",
    "ChunkCodecStats",
    "ProcessShardExecutor",
    "decode_chunk",
    "decode_run",
    "encode_chunk",
    "encode_run",
]

#: Wire header: element count, key-table size, value encoding kind, flags.
_CHUNK_HEADER = struct.Struct("<IIBB")

#: Value encodings: a raw float64 array, or one pickled list per chunk.
_VALUES_FLOAT64 = 0
_VALUES_PICKLE = 1

#: Header flag: every element's key is ``None`` (no key table on the wire).
_FLAG_NO_KEYS = 1


@dataclass(slots=True)
class ChunkCodecStats:
    """Serialization counters for the chunk codec (the wire-format probe).

    Tests assert ``pickle_calls <= 2 * chunks_encoded`` after arbitrarily
    large runs — the "no per-element pickling" acceptance criterion made
    checkable.  The module-level :data:`CODEC_STATS` instance is updated
    by every :func:`encode_chunk` call in the coordinator process.
    """

    chunks_encoded: int = 0
    elements_encoded: int = 0
    pickle_calls: int = 0
    wire_bytes: int = 0

    def reset(self) -> None:
        """Zero all counters (tests call this before a probed run)."""
        self.chunks_encoded = 0
        self.elements_encoded = 0
        self.pickle_calls = 0
        self.wire_bytes = 0


#: Process-wide codec probe; coordinator-side only (workers decode).
CODEC_STATS = ChunkCodecStats()


def _spelling(key: Any) -> tuple[Any, ...]:
    """The key with its type, item by item inside tuples.

    Keys that compare equal but differ in type (``1``, ``1.0``, ``True``,
    ``np.int64(1)``) spell differently, so the key table keeps each one
    the chunk carries; the key itself is the second item.
    """
    if isinstance(key, tuple):
        return (type(key), key, tuple(map(_spelling, key)))
    return (type(key), key)


def encode_chunk(elements: Sequence[StreamElement]) -> bytes:
    """Encode an arrival-ordered element slice into the compact wire form.

    Timestamps and seqs travel as raw ``array`` buffers (``None`` arrival
    becomes a NaN sentinel); values take a float64 fast path when every
    payload is exactly a float, otherwise one pickle for the whole list;
    keys are deduplicated by type and value (:func:`_spelling`; ``str``
    and ``None`` keys by value alone) into a table pickled once per chunk
    plus a ``uint32`` index array, so each element decodes with a key of
    its own type.  At most two ``pickle.dumps`` calls per chunk,
    independent of the element count.
    """
    n = len(elements)
    event_times = array("d", [element.event_time for element in elements])
    arrivals = array("d", [
        math.nan if element.arrival_time is None else element.arrival_time
        for element in elements
    ])
    seqs = array("q", [element.seq for element in elements])

    pickle_calls = 0
    values = [element.value for element in elements]
    if set(map(type, values)) <= {float}:
        values_kind = _VALUES_FLOAT64
        values_blob = array("d", values).tobytes()
    else:
        values_kind = _VALUES_PICKLE
        values_blob = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
        pickle_calls += 1

    flags = n_keys = 0
    key_indices = key_table_blob = b""
    keys = [element.key for element in elements]
    key_types = set(map(type, keys))
    if key_types <= {type(None)}:
        flags = _FLAG_NO_KEYS
    else:
        plain = key_types <= {str, type(None)}
        table: dict[Any, int] = {}
        key_indices = array(
            "I",
            [
                table.setdefault(spelling, len(table))
                for spelling in (keys if plain else map(_spelling, keys))
            ],
        ).tobytes()
        n_keys = len(table)
        key_table = list(table) if plain else [spelling[1] for spelling in table]
        key_table_blob = pickle.dumps(key_table, protocol=pickle.HIGHEST_PROTOCOL)
        pickle_calls += 1

    payload = b"".join(
        (
            _CHUNK_HEADER.pack(n, n_keys, values_kind, flags),
            event_times.tobytes(),
            arrivals.tobytes(),
            seqs.tobytes(),
            struct.pack("<I", len(values_blob)),
            values_blob,
            key_indices,
            key_table_blob,
        )
    )
    CODEC_STATS.chunks_encoded += 1
    CODEC_STATS.elements_encoded += n
    CODEC_STATS.pickle_calls += pickle_calls
    CODEC_STATS.wire_bytes += len(payload)
    return payload


def decode_chunk(payload: bytes) -> list[StreamElement]:
    """Reconstruct the element slice encoded by :func:`encode_chunk`."""
    n, n_keys, values_kind, flags = _CHUNK_HEADER.unpack_from(payload, 0)
    offset = _CHUNK_HEADER.size

    view = memoryview(payload)
    event_times = view[offset : offset + 8 * n].cast("d")
    arrivals = view[offset + 8 * n : offset + 16 * n].cast("d")
    seqs = view[offset + 16 * n : offset + 24 * n].cast("q")
    offset += 24 * n

    (values_length,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    values_blob = view[offset : offset + values_length]
    offset += values_length
    if values_kind == _VALUES_FLOAT64:
        values: Sequence[Any] = values_blob.cast("d")
    elif values_kind == _VALUES_PICKLE:
        values = pickle.loads(values_blob)
    else:
        raise ConfigurationError(f"unknown chunk value encoding {values_kind}")

    keys: Iterable[Any]
    if flags & _FLAG_NO_KEYS:
        keys = (None,) * n
    else:
        table = pickle.loads(view[offset + 4 * n :])
        keys = map(table.__getitem__, view[offset : offset + 4 * n].cast("I"))

    return [
        StreamElement(
            event_time, value, key, None if math.isnan(arrival) else arrival, seq
        )
        for event_time, value, key, arrival, seq in zip(
            event_times, values, keys, arrivals, seqs
        )
    ]


def encode_run(run: _ShardRun) -> bytes:
    """Encode one shard's run for the trip back to the coordinator.

    One pickle per run, whatever its size: the result columns, frontier
    timelines and observed errors are ``array`` objects, which pickle as
    raw buffers; the key table and (traced runs) the trace events are the
    only per-item objects inside it.
    """
    return dumps_state(run)


def decode_run(payload: bytes) -> _ShardRun:
    """Restore the run encoded by :func:`encode_run`."""
    return cast(_ShardRun, loads_state(payload))


def _worker_main(worker_id: int, task_queue: Any, result_queue: Any) -> None:
    """Worker process loop: decode chunks, drive a shard session, report.

    Message protocol (all tuples, first item is the kind):

    * ``("begin", session_id, spec_blob)`` — start a fresh
      :class:`~repro.engine.parallel.ShardSession` for a new run.
    * ``("chunk", session_id, shard_id, payload)`` — feed one encoded chunk.
    * ``("finish", session_id)`` — finish every owned shard, send one
      ``("run", session_id, shard_id, run_blob)`` per shard followed by
      ``("done", session_id, worker_id, shard_ids)``.
    * ``("stop",)`` — exit the loop.

    Any exception is reported as ``("error", session_id, worker_id, phase,
    shard_id, formatted_traceback)`` and the session is poisoned: further
    messages for it are ignored (the coordinator raises on the first
    error and tears the pool down).
    """
    session: ShardSession | None = None
    session_id = -1
    failed_session = -1
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            return
        shard_id = -1
        try:
            if kind == "begin":
                session_id = message[1]
                session = ShardSession(loads_state(message[2]))  # type: ignore[arg-type]
                continue
            if message[1] != session_id or session_id == failed_session:
                continue
            if session is None:
                raise ConfigurationError(f"{kind} received before begin")
            if kind == "chunk":
                shard_id = message[2]
                session.feed(shard_id, decode_chunk(message[3]))
            elif kind == "finish":
                shard_ids = []
                for run in session.finish():
                    shard_id = run.shard_id
                    shard_ids.append(shard_id)
                    result_queue.put(
                        ("run", session_id, shard_id, encode_run(run))
                    )
                result_queue.put(("done", session_id, worker_id, shard_ids))
                session = None
        except BaseException:  # noqa: BLE001 — reported to the coordinator
            failed_session = session_id
            result_queue.put(
                ("error", session_id, worker_id, kind, shard_id, traceback.format_exc())
            )


class ProcessShardExecutor(ShardExecutor):
    """Shard executor backed by a warm pool of worker processes.

    Args:
        max_workers: Process-count cap; defaults to
            ``min(n_shards, os.cpu_count())`` — past the core count,
            extra workers only add scheduler churn.
        chunk_size: Elements per dispatched chunk (default
            :data:`~repro.engine.parallel.DEFAULT_CHUNK_SIZE`); the
            coordinator reads this through the executor seam to decide
            when to ship.

    Workers are started with the ``spawn`` method — the only portable,
    fork-safety-proof choice, and the cost the warm pool exists to
    amortize.  The pool is *persistent*: workers survive :meth:`collect`
    and are reused by the next :meth:`begin` with a compatible worker
    count, so repeated runs (benchmarks, property tests) pay the spawn
    cost once.
    Workers are daemons — an abandoned executor cannot outlive the
    coordinator process — but :meth:`close` tears the pool down eagerly.
    Shards map to workers stickily (``shard_id % n_workers``), keeping
    each shard's chunks ordered on one worker's queue.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if max_workers is not None and (
            not isinstance(max_workers, int)
            or isinstance(max_workers, bool)
            or max_workers < 1
        ):
            raise ConfigurationError(
                f"max_workers must be a positive int or None, got {max_workers!r}"
            )
        if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) or chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be a positive int, got {chunk_size!r}"
            )
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self._context = multiprocessing.get_context("spawn")
        self._workers: list[Any] = []
        self._task_queues: list[Any] = []
        self._result_queue: Any = None
        self._session_id = 0
        self._dispatched: set[int] = set()

    # -- seam: build-time validation ----------------------------------- #

    def validate(self, assigner: Any, aggregate: Any, handler: Any) -> None:
        """Reject unpicklable query parts at build time, with a real hint.

        Raises:
            ConfigurationError: naming the offending part, instead of the
                pickle traceback that would otherwise surface mid-run.
        """
        for label, part in (
            ("window assigner", assigner),
            ("aggregate", aggregate),
            ("disorder handler", handler),
        ):
            try:
                dumps_state(part)
            except Exception as error:
                raise ConfigurationError(
                    f"the process executor requires a picklable {label}, but "
                    f"{type(part).__name__} failed to pickle ({error}); use "
                    "module-level classes and functions — no lambdas, "
                    "closures or open resources — so shard workers can "
                    "reconstruct it"
                ) from None

    # -- pool lifecycle ------------------------------------------------- #

    def worker_count(self, n_shards: int) -> int:
        """Number of worker processes a run over ``n_shards`` will use."""
        cap = self.max_workers if self.max_workers is not None else (os.cpu_count() or 1)
        return max(1, min(n_shards, cap))

    def _ensure_pool(self, n_workers: int) -> None:
        if (
            len(self._workers) == n_workers
            and all(worker.is_alive() for worker in self._workers)
        ):
            return
        self.close()
        self._result_queue = self._context.Queue()
        for worker_id in range(n_workers):
            task_queue = self._context.Queue()
            worker = self._context.Process(
                target=_worker_main,
                args=(worker_id, task_queue, self._result_queue),
                name=f"repro-shard-worker-{worker_id}",
                daemon=True,
            )
            worker.start()
            self._task_queues.append(task_queue)
            self._workers.append(worker)

    def begin(self, spec: ShardSpec) -> None:
        """Start a session: (re)warm the pool and broadcast the spec.

        The coordinator's handler factory need not pickle: one prototype
        it builds here does, and the broadcast spec's factory unpickles a
        fresh copy of that prototype per shard.
        """
        self._ensure_pool(self.worker_count(spec.n_shards))
        self._session_id += 1
        self._dispatched = set()
        handler_blob = dumps_state(spec.handler_factory())
        spec_blob = dumps_state(
            replace(spec, handler_factory=partial(loads_state, handler_blob))
        )
        for task_queue in self._task_queues:
            task_queue.put(("begin", self._session_id, spec_blob))

    def dispatch(self, shard_id: int, elements: Sequence[StreamElement]) -> int:
        """Encode and ship one chunk; returns its wire size in bytes."""
        payload = encode_chunk(elements)
        worker_index = shard_id % len(self._workers)
        self._task_queues[worker_index].put(
            ("chunk", self._session_id, shard_id, payload)
        )
        self._dispatched.add(shard_id)
        return len(payload)

    def collect(self) -> list[_ShardRun]:
        """Finish every shard and join the per-shard runs, by shard id.

        Raises:
            ShardWorkerError: a worker reported an exception (the message
                carries the worker-side traceback) or died silently (the
                message carries its exit code and owned shards).
        """
        for task_queue in self._task_queues:
            task_queue.put(("finish", self._session_id))
        awaiting = set(range(len(self._workers)))
        runs: dict[int, _ShardRun] = {}
        while awaiting:
            try:
                message = self._result_queue.get(timeout=0.2)
            except Empty:
                self._check_liveness(awaiting)
                continue
            kind = message[0]
            if message[1] != self._session_id:
                continue
            if kind == "run":
                runs[message[2]] = decode_run(message[3])
            elif kind == "done":
                awaiting.discard(message[2])
            elif kind == "error":
                _, _, worker_id, phase, shard_id, trace_text = message
                self.close()
                where = f"shard {shard_id}" if shard_id >= 0 else "its control loop"
                raise ShardWorkerError(
                    f"shard worker {worker_id} failed in phase {phase!r} on "
                    f"{where}:\n--- worker traceback ---\n{trace_text}"
                )
        missing = self._dispatched - set(runs)
        if missing:
            self.close()
            raise ShardWorkerError(
                f"workers finished without reporting shards {sorted(missing)}"
            )
        return [runs[shard_id] for shard_id in sorted(runs)]

    def _check_liveness(self, awaiting: set[int]) -> None:
        """Raise if any worker we are waiting on has died silently."""
        n_workers = len(self._workers)
        for worker_id in sorted(awaiting):
            worker = self._workers[worker_id]
            if worker.is_alive():
                continue
            owned = sorted(
                shard_id
                for shard_id in self._dispatched
                if shard_id % n_workers == worker_id
            )
            exit_code = worker.exitcode
            self.close()
            raise ShardWorkerError(
                f"shard worker {worker_id} died (exit code {exit_code}) "
                f"before reporting; it owned shards {owned}"
            )

    def close(self) -> None:
        """Tear the pool down; the next ``begin`` will rebuild it."""
        for task_queue, worker in zip(self._task_queues, self._workers):
            if worker.is_alive():
                try:
                    task_queue.put(("stop",))
                except (OSError, ValueError):
                    pass
        for worker in self._workers:
            worker.join(timeout=2.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        for task_queue in self._task_queues:
            task_queue.close()
            task_queue.cancel_join_thread()
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue.cancel_join_thread()
        self._workers = []
        self._task_queues = []
        self._result_queue = None

    def describe(self) -> str:
        """Label the execution strategy for reports, e.g. ``processes(4)``."""
        if self._workers:
            return f"processes({len(self._workers)})"
        if self.max_workers is not None:
            return f"processes({self.max_workers})"
        return "processes(auto)"

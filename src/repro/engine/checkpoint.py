"""Operator checkpointing: suspend a continuous query and resume it later.

Continuous queries are long-running by definition; restarts (deploys,
crashes, rebalances) must not lose window state or the adaptive
controller's learned slack.  Checkpoints capture the *entire* operator —
open-window accumulators, the disorder handler's buffer, delay samples,
controller gain — so a resumed query behaves byte-identically to one that
never stopped (verified by the resume-equivalence tests).

Implementation: the engine's state is plain Python data (dataclasses,
lists, dicts, heaps, numpy arrays), so the checkpoint format is a pickle of
the operator object.  Two consequences:

* any callables wired into the operator (side selectors, predicates,
  ``source_of``, a shard handler factory) must be module-level functions,
  not lambdas or closures, and its shards must run in-process, or
  :func:`save_checkpoint` raises :class:`~repro.errors.ConfigurationError`;
* checkpoints are a *trust boundary*: like every pickle, loading one
  executes code, so only load checkpoints you wrote.

Observers are never state: a tracer or metrics registry pickles detached
(their ``__reduce__``: ``NULL_TRACER``, no registry) until the caller
attaches one again.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.errors import ConfigurationError

CHECKPOINT_MAGIC = b"repro-checkpoint-v1\n"

#: Magic prefix for in-memory state snapshots shipped between processes
#: (shard specs, handler prototypes, columnar shard run records).  The
#: same pickle machinery as file checkpoints, minus the filesystem: the
#: process-pool shard executor uses these for its control-plane payloads.
STATE_MAGIC = b"repro-shard-state-v1\n"


def dumps_state(obj: object) -> bytes:
    """Serialize ``obj`` into a magic-prefixed state snapshot.

    Used by the process-pool shard executor for everything that crosses
    the process boundary *except* element chunks (which use the compact
    array codec in :mod:`repro.engine.process_pool`): the shard spec, the
    handler prototype, and each shard's columnar run record.
    Like file checkpoints, snapshots are a trust boundary — only load
    snapshots produced by this process family.
    """
    return STATE_MAGIC + pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def loads_state(payload: bytes) -> object:
    """Restore an object snapshotted by :func:`dumps_state`.

    Raises:
        ConfigurationError: the payload does not carry the state magic.
    """
    if not payload.startswith(STATE_MAGIC):
        raise ConfigurationError(
            "not a repro state snapshot (bad magic prefix); refusing to "
            "unpickle an unrecognized payload"
        )
    return pickle.loads(payload[len(STATE_MAGIC):])


def save_checkpoint(operator, path: str | Path) -> int:
    """Serialize ``operator`` (with all its state) to ``path``.

    Returns the number of bytes written.

    Raises:
        ConfigurationError: some part of the operator does not pickle — a
            process-pool executor (its live worker handles), a lambda or
            closure wired in.  No file is written.
    """
    path = Path(path)
    try:
        body = pickle.dumps(operator, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        if not isinstance(error, pickle.PicklingError) and "pickl" not in str(error).lower():
            raise  # a bug in some __reduce__, not an unpicklable part
        raise ConfigurationError(
            f"cannot checkpoint {type(operator).__name__}: part of its state "
            f"does not pickle ({error}); checkpoints need module-level "
            "functions and in-process executors"
        ) from error
    payload = CHECKPOINT_MAGIC + body
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return len(payload)


def load_checkpoint(path: str | Path):
    """Restore an operator saved by :func:`save_checkpoint`.

    Raises:
        ConfigurationError: missing file or unrecognized format.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"checkpoint does not exist: {path}")
    payload = path.read_bytes()
    if not payload.startswith(CHECKPOINT_MAGIC):
        raise ConfigurationError(f"not a repro checkpoint: {path}")
    return pickle.loads(payload[len(CHECKPOINT_MAGIC):])

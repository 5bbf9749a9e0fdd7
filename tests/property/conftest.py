"""Fixtures for the execution-matrix properties (:mod:`tests.matrix`)."""

from __future__ import annotations

import pytest

from repro.engine.process_pool import ProcessShardExecutor


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Where a refused checkpoint would have gone."""
    return tmp_path_factory.mktemp("matrix") / "refused.ckpt"


@pytest.fixture(scope="module")
def pool():
    """One warm pool for a module's process cells; small chunks, many dispatches."""
    executor = ProcessShardExecutor(max_workers=2, chunk_size=16)
    executor._ensure_pool(2)  # live workers from the first cell on: none pickles
    yield executor
    executor.close()

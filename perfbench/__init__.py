"""perfbench — the repository's one benchmark (see ``perfbench/README.md``).

Four workloads, eight end-to-end metrics and a per-layer breakdown, all
measured from outside the ``repro`` package: the system is driven only
through its public entry points and the seams a caller can already pass
in (handler, aggregate, executor, an ``Operator`` wrapper).

The benchmark measures the checkout it sits in, so importing it puts that
checkout's ``src/`` first on ``sys.path``.
"""

import atexit
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def run_interpreter(arguments: list[str], timeout: float) -> subprocess.CompletedProcess:
    """``python <arguments>`` in a fresh interpreter, output captured.

    The child leads a process group of its own, and whichever way this
    returns — the child timed out, crashed, or this call was interrupted —
    the whole group (the child's pool workers too) is killed and reaped.
    """
    child = subprocess.Popen(
        [sys.executable, *arguments], cwd=ROOT, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the child ended and took its helpers along
        child.wait()
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


def stop_children(keep=()) -> None:
    """Kill every ``multiprocessing`` child of this process that is not in
    ``keep`` and wait for it."""
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        if child not in keep:
            child.kill()
            child.join()


def _leave_no_process() -> None:
    """At interpreter exit: no pool worker and no resource tracker is left.

    A spawn-context pool starts ``multiprocessing``'s resource tracker, a
    helper process that ends only once it notices its parent is gone — some
    milliseconds *after* the benchmark has exited.  Stop it and wait for it.
    Registered before anything imports ``multiprocessing``, so this runs
    after that package's own exit handler has run the semaphore finalizers
    that would start the tracker again.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is None:
        return
    if sys.modules["multiprocessing"].parent_process() is not None:
        return  # a pool worker shares its parent's tracker
    stop_children()  # they hold the pipe the tracker waits on
    stop = getattr(tracker_module._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


atexit.register(_leave_no_process)

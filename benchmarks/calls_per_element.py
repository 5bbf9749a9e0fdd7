"""Python calls per input element, by function, for one perfbench workload.

``make calls WORKLOAD=<name>`` (or ``python benchmarks/calls_per_element.py
--workload <name>``, from the repository root) generates the workload's
stream with ``perfbench.workloads.generate`` (scale 0.1 by default, seed
:data:`SEED`), builds its query with ``perfbench.workloads.build_query``
and feeds the stream through ``run_pipeline`` once, with a
``sys.setprofile`` hook counting the ``call`` events of the calling
process: one per Python frame entered, generator resumptions included, C
functions and worker processes not.  The table lists each function's
calls divided by the number of input elements, most-called first, then the
same per source file, then the total.  Python 3.10 names a method by its
bare name; later versions add its class.

A sharded workload prints a second table for one worker: shard 0's chunks,
recorded from a second, in-process run of the same query and encoded as
the coordinator ships them, are replayed here through ``decode_chunk``,
``ShardSession.feed`` and ``finish`` and ``encode_run``, under the same
hook, per element of shard 0.

The count is deterministic: the same workload and scale print the same
table on any machine of the same Python version, where wall-clock pairs on a
busy box swing by tens of percent.  Use it to attribute a change in Python
work per element to the functions that gained or lost it.
"""

import argparse
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench.workloads import BY_NAME, build_query, generate  # noqa: E402
from repro.engine.parallel import ShardExecutor, ShardSession  # noqa: E402
from repro.engine.pipeline import run_pipeline  # noqa: E402
from repro.engine.process_pool import (  # noqa: E402
    ProcessShardExecutor,
    decode_chunk,
    encode_chunk,
    encode_run,
)

SEED = 42  # the stream's seed: one stream per workload and scale


def profile_calls(run, *args, **kwargs):
    """Calls by code object while ``run(*args, **kwargs)`` runs, in this process."""
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        run(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


def count_calls(workload_name, scale=0.1):
    """``(calls by code object, input element count)`` of one run."""
    workload = BY_NAME[workload_name]
    elements = generate(workload, SEED, scale).elements
    pool = None
    if workload.shards:
        pool = ProcessShardExecutor(max_workers=workload.shards)
    try:
        operator = build_query(workload, executor=pool).build_operator()
        calls = profile_calls(
            run_pipeline, elements, operator, batch_size=workload.batch_size
        )
    finally:
        if pool is not None:
            pool.close()
    return calls, len(elements)


class ShardZeroRecorder(ShardExecutor):
    """In-process shards that keep shard 0's spec and encoded chunks."""

    def begin(self, spec):
        super().begin(spec)
        self.spec = spec
        self.payloads = []
        self.elements = 0

    def dispatch(self, shard_id, elements):
        if shard_id == 0:
            self.payloads.append(encode_chunk(elements))
            self.elements += len(elements)
        return super().dispatch(shard_id, elements)


def count_worker_calls(workload_name, scale=0.1):
    """``(calls by code object, shard 0's element count)`` of one worker's work."""
    workload = BY_NAME[workload_name]
    recorder = ShardZeroRecorder()
    operator = build_query(workload, executor=recorder).build_operator()
    run_pipeline(
        generate(workload, SEED, scale).elements, operator,
        batch_size=workload.batch_size,
    )
    session = ShardSession(recorder.spec)

    def replay():
        for payload in recorder.payloads:
            session.feed(0, decode_chunk(payload))
        for run in session.finish():
            encode_run(run)

    return profile_calls(replay), recorder.elements


def source_name(filename):
    """A file's path below the innermost import root holding it, not the machine's."""
    path = pathlib.Path(filename)
    for base in sorted(map(pathlib.Path, filter(None, sys.path)), key=lambda p: -len(p.parts)):
        if path.is_relative_to(base):
            return path.relative_to(base).as_posix()
    return path.name


def render(calls, elements, label="input elements"):
    """The markdown table: per function, per file, then the total."""
    by_function = Counter()
    by_file = Counter()
    for code, count in calls.items():
        source = source_name(code.co_filename)
        qualname = getattr(code, "co_qualname", code.co_name)  # Python 3.10 has none
        by_function[f"{source}:{code.co_firstlineno} {qualname}"] += count
        by_file[source] += count
    lines = [f"{elements} {label}", "", "| calls / element | function |", "|---:|---|"]
    for name, count in sorted(by_function.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"| {count / elements:.2f} | `{name}` |")
    lines += ["", "| calls / element | file |", "|---:|---|"]
    for name, count in sorted(by_file.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"| {count / elements:.2f} | `{name}` |")
    lines.append(f"| **{sum(calls.values()) / elements:.2f}** | **total** |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--scale", type=float, default=0.1)
    args = parser.parse_args(argv)
    print(render(*count_calls(args.workload, args.scale)))
    if BY_NAME[args.workload].shards:
        print()
        print(render(*count_worker_calls(args.workload, args.scale), "elements of shard 0"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

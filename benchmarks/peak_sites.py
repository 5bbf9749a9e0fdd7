"""Where one perfbench workload's memory peak goes, by allocation site.

``make peak WORKLOAD=<name>`` (or ``python benchmarks/peak_sites.py
--workload <name>``, from the repository root) generates the workload's
stream as ``benchmarks/calls_per_element.py`` does (scale 0.1, seed
:data:`~benchmarks.calls_per_element.SEED`), builds its query and runs it
once, untraced, under ``tracemalloc`` the way perfbench's memory pass
measures ``state_peak_mb``: tracing starts after the stream exists (and,
for a sharded workload, after the process pool is up), and covers the
operator's build and the run.  A sharded workload is measured in the
calling process, the coordinator; its workers are not traced.

It prints the traced peak above the level at run start, the bytes still
held once the run returned (its results and the finished operator), and
the top :data:`TOP` allocation sites of what is held, by ``file:line``,
with KiB and block count: the memory counterpart of ``make calls``.
"""

import argparse
import gc
import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.calls_per_element import SEED, source_name  # noqa: E402
from perfbench.workloads import BY_NAME, build_query, generate  # noqa: E402
from repro.engine.pipeline import run_pipeline  # noqa: E402
from repro.engine.process_pool import ProcessShardExecutor  # noqa: E402

SCALE = 0.1  # calls_per_element.py's default scale
TOP = 15  # allocation sites listed


def measure(workload_name):
    """``(peak bytes above run start, held snapshot, held bytes, elements)``."""
    workload = BY_NAME[workload_name]
    elements = generate(workload, SEED, SCALE).elements
    pool = ProcessShardExecutor(max_workers=workload.shards) if workload.shards else None
    try:
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            operator = build_query(workload, executor=pool).build_operator()
            output = run_pipeline(elements, operator, batch_size=workload.batch_size)
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        if pool is not None:
            pool.close()
    del operator, output  # held until the snapshot was taken
    return peak - base, snapshot, held - base, len(elements)


def render(workload_name, peak, snapshot, held, elements):
    """The two totals, then the top sites of what the run left held."""
    lines = [
        f"{workload_name}: {elements} input elements, scale {SCALE}, seed {SEED}",
        "",
        f"peak above run start: {peak / 1e6:.3f} MB",
        f"held after the run: {held / 1e6:.3f} MB",
        "",
        "| KiB | count | site |",
        "|---:|---:|---|",
    ]
    for stat in snapshot.statistics("lineno")[:TOP]:
        frame = stat.traceback[0]
        lines.append(
            f"| {stat.size / 1024:.1f} | {stat.count} "
            f"| `{source_name(frame.filename)}:{frame.lineno}` |"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    args = parser.parse_args(argv)
    print(render(args.workload, *measure(args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

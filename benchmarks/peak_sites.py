"""Where one perfbench workload's memory peak goes, by allocation site.

``make peak WORKLOAD=<name>`` (or ``python benchmarks/peak_sites.py
--workload <name>``, from the repository root) generates the workload's
stream as ``benchmarks/calls_per_element.py`` does (scale 0.1 unless
``--scale`` says otherwise, seed :data:`~benchmarks.calls_per_element.SEED`), builds its query and runs it
under ``tracemalloc`` the way perfbench's memory pass measures
``state_peak_mb``: after one untraced warm-up run (perfbench's observed
pass; it does the imports a first run makes), tracing starts once the
stream exists (and, for a sharded workload, the process pool is up) and
covers the operator's build and the run.  A sharded workload is measured
in the calling process, the coordinator; its workers are not traced.

It prints the traced peak above the level at run start, the bytes still
held once the run returned (its results and the finished operator), and
the top :data:`TOP` allocation sites of what is held, by ``file:line``,
with KiB and block count: the memory counterpart of ``make calls``.

A peak reached mid-run (a delay burst fills the sorting buffer, which has
drained by the end) is not among what is held.  So a second, sampled pass
runs the same workload again and, every :data:`EVERY` input elements,
reads the traced level; at each new high it takes a snapshot and keeps its
top sites, printed as a second table with each site's share of that high.
The snapshots cost time and memory of their own, so the headline peak is
the first, untouched pass's.
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

SCALE = 0.1  # calls_per_element.py's default scale; ``--scale`` sets another
TOP = 15  # allocation sites listed
EVERY = 512  # input elements between two reads of the traced level (sampled pass)


def measure(workload_name, scale=SCALE):
    """``(peak bytes above run start, held snapshot, held bytes, elements,
    sampled)``, where ``sampled`` is :func:`sample_peak`'s result."""
    workload = BY_NAME[workload_name]
    elements = generate(workload, SEED, scale).elements
    pool = ProcessShardExecutor(max_workers=workload.shards) if workload.shards else None
    try:
        run_pipeline(
            elements, build_query(workload, executor=pool).build_operator(),
            batch_size=workload.batch_size,
        )
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
        del operator, output  # held until the snapshot was taken
        sampled = sample_peak(workload, elements, pool)
    finally:
        if pool is not None:
            pool.close()
    return peak - base, snapshot, held - base, len(elements), sampled


def sample_peak(workload, elements, pool):
    """``(sampled high in bytes, input elements fed by then, its top sites)``.

    Drives the operator as ``run_pipeline`` does (``process`` per element,
    or ``process_many`` per ``batch_size`` chunk, then ``finish``) and
    reads the traced level every :data:`EVERY` input elements and after
    ``finish``.
    """
    step = workload.batch_size if workload.batch_size > 1 else 1
    high = (0, 0, [])

    def sample(fed):
        nonlocal high
        level, _ = tracemalloc.get_traced_memory()
        if level > high[0]:
            high = (level, fed, tracemalloc.take_snapshot().statistics("lineno")[:TOP])

    gc.collect()
    tracemalloc.start()
    try:
        operator = build_query(workload, executor=pool).build_operator()
        results = []
        for index in range(0, len(elements), step):
            if step > 1:
                results.extend(operator.process_many(elements[index : index + step]))
            else:
                results.extend(operator.process(elements[index]))
            if (index + step) // EVERY > index // EVERY:
                sample(index + step)
        results.extend(operator.finish())
        sample(len(elements))
    finally:
        tracemalloc.stop()
    return high


def site_rows(statistics, total=None):
    """Table rows: KiB, blocks, ``file:line``, and the share of ``total``."""
    rows = []
    for stat in statistics:
        frame = stat.traceback[0]
        row = (
            f"| {stat.size / 1024:.1f} | {stat.count} "
            f"| `{source_name(frame.filename)}:{frame.lineno}` |"
        )
        if total is not None:
            row += f" {100 * stat.size / total:.1f}% |"
        rows.append(row)
    return rows


def render(workload_name, scale, peak, snapshot, held, elements, sampled):
    """The two totals, the top sites of what the run left held, and the
    top sites live at :func:`sample_peak`'s high."""
    lines = [
        f"{workload_name}: {elements} input elements, scale {scale}, seed {SEED}",
        "",
        f"peak above run start: {peak / 1e6:.3f} MB",
        f"held after the run: {held / 1e6:.3f} MB",
        "",
        "| KiB | count | site |",
        "|---:|---:|---|",
        *site_rows(snapshot.statistics("lineno")[:TOP]),
    ]
    level, fed, statistics = sampled
    lines += [
        "",
        f"live at the sampled high: {level / 1e6:.3f} MB after {fed} input elements "
        f"(sampled pass, every {EVERY})",
        "",
        "| KiB | count | site | share of the high |",
        "|---:|---:|---|---:|",
        *site_rows(statistics, level),
    ]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--scale", type=float, default=SCALE)
    args = parser.parse_args(argv)
    print(render(args.workload, args.scale, *measure(args.workload, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

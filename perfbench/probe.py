"""Set-up probe: run in a fresh interpreter, prints one ``setup_s`` sample.

``python -m perfbench.probe WORKLOAD``.  Times ``import repro`` (plus the
process-pool module on the sharded workload), the query build and a first
short run — which, when sharded, spawns the pool and waits for its first
round trip — until the operator has accepted its first elements.
Generating the probe's few inputs is not counted.
"""

import sys
import time

#: Elements of the first short run: enough for a chunk per shard.
PROBE_ELEMENTS = 2048


def main(argv: list[str]) -> int:
    timed = 0.0
    start = time.perf_counter()
    import repro  # noqa: F401 - the timed import
    timed += time.perf_counter() - start

    from perfbench.workloads import BY_NAME, generate

    workload = BY_NAME[argv[0]]
    if workload.shards:
        start = time.perf_counter()
        import repro.engine.process_pool  # noqa: F401 - what .executor("process") imports
        timed += time.perf_counter() - start

    from perfbench.measure import Bench, run_once

    scale = 2 * PROBE_ELEMENTS / (workload.duration_s * workload.rate)
    inputs = generate(workload, seed=0, scale=scale).prefix(PROBE_ELEMENTS)
    start = time.perf_counter()
    with Bench(workload, inputs) as bench:
        run_once(workload, inputs, bench.build())
        timed += time.perf_counter() - start
    print(repr(timed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

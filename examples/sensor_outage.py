"""Sensor fleet with a gateway outage: watching the system adapt.

A sensor grid reports through a gateway whose latency explodes for 100
seconds mid-run (queueing during an outage).  The quality-driven buffer
must inflate its slack during the burst to keep the 5% error target and
deflate afterwards to restore freshness.  This example prints the
adaptation timeline as a small ASCII chart.

Run:  python examples/sensor_outage.py
"""

import numpy as np

from repro import ContinuousQuery, sliding
from repro.core.quality import error_timeline
from repro.engine.oracle import oracle_results
from repro.core.quality import assess_quality
from repro.workloads import sensor_delay_model, sensor_readings


def bar(value: float, scale: float, width: int = 40) -> str:
    if scale <= 0:
        return ""
    filled = min(width, int(round(value / scale * width)))
    return "#" * filled


def main(duration: float = 450.0) -> None:
    rng = np.random.default_rng(11)
    burst_start, burst_end = duration / 3, duration * 5 / 9
    model = sensor_delay_model(burst_start=burst_start, burst_end=burst_end, burst_mu=1.5)
    stream = sensor_readings(
        duration=duration, rate=120, rng=rng, n_sensors=8, delay_model=model
    )
    print(f"replaying {len(stream)} sensor readings; gateway outage in "
          f"[{burst_start:.0f}s, {burst_end:.0f}s)\n")

    run = (
        ContinuousQuery()
        .from_elements(stream)
        .window(sliding(10, 2))
        .aggregate("mean")
        .with_quality(0.05)
        .run()
    )

    handler = run.handler
    bucket = 30.0
    slack_by_bucket: dict[int, list[float]] = {}
    for record in handler.adaptations:
        slack_by_bucket.setdefault(int(record.arrival_time // bucket), []).append(
            record.k_applied
        )
    max_slack = max(max(v) for v in slack_by_bucket.values())

    print("adaptive slack K over time (median per 30s bucket):")
    for index in sorted(slack_by_bucket):
        median = float(np.median(slack_by_bucket[index]))
        marker = " <- outage" if burst_start <= index * bucket < burst_end else ""
        print(f"  t={index * bucket:5.0f}s  K={median:6.2f}s "
              f"|{bar(median, max_slack)}{marker}")

    # Score the run and show how error evolved across the outage.
    truth = oracle_results(
        stream, sliding(10, 2), run.operator.aggregate
    )
    report = assess_quality(run.results, truth, threshold=0.05, keep_scores=True)
    print(f"\noverall: mean error {report.mean_error:.4f} (target 0.05), "
          f"recall {report.window_recall:.1%}")
    print("mean error per 90s of event time:")
    for start, error in error_timeline(report, bucket=90.0):
        print(f"  [{start:5.0f}s..) error={error:.4f} |{bar(error, 0.05, 20)}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=None,
                        help="event-time span in seconds")
    args = parser.parse_args()
    main(**({} if args.duration is None else {"duration": args.duration}))

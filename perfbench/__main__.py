"""``python -m perfbench``: the whole benchmark, or one workload for the driver."""

import argparse
import sys


def parse_args(argv: list[str]) -> argparse.Namespace:
    from perfbench.workloads import BY_NAME, DEFAULT_SCALE

    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="run only this workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed repeats measure (at least 12 repeats run)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one run of --workload, end-to-end (0) or per-layer (1)")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="stream length relative to the designed sizes")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and fail if the two sets disagree")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.trace is not None and args.aa:
        parser.error("--aa runs whole sets; drop --trace")
    return args


def main(argv: list[str]) -> int:
    from perfbench import ROOT

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the system under test (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.trace is not None:
        from perfbench import run

        return run.main(args)
    from perfbench import suite

    return suite.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

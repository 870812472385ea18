"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload archive-detect --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The line before the result holds
per-kind medians and tails.  Working files live under ``.perfbench/``
in the checkout and are removed when the run ends; the traced run's
spans are kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads: a run drives the program
# from one thread of its own (plus the program's threads=2 where a
# workload asks for it), never from a library's hidden pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def workloads() -> dict:
    """The gated workloads.  ``strided-survey`` is run only by
    ``reference.py``: its run-to-run spread on a shared host is too wide
    to gate on (see README.md)."""
    from perfbench.archive_detect import ArchiveDetect
    from perfbench.live_ingest import LiveIngest
    from perfbench.viewer_mix import ViewerMix

    return {cls.name: cls for cls in (ArchiveDetect, ViewerMix, LiveIngest)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.runner import measure

    table = workloads()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; have {sorted(table)}", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        wl = table[args.workload](seed=args.seed, root=work)
        trace_path = os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        result = measure(wl, args.seconds, bool(args.trace), trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference figures measured beside the workloads (see README.md).

Runs each workload in a variant that bypasses one mechanism and prints
its end-to-end metrics next to the workload's own:

* ``archive-detect`` at ``threads=1`` -- the plain single-threaded plan;
* ``archive-detect`` with ``verify=False`` -- without plan verification;
* ``strided-survey`` with ``naive=True`` -- the eager plan, no pushdown;
* ``viewer-mix`` with a block cache that holds the whole archive.

Usage, from the root of a checkout::

    python3 perfbench/reference.py --seed 1 --seconds 10
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.archive_detect import ArchiveDetect  # noqa: E402
from perfbench.runner import measure  # noqa: E402
from perfbench.strided_survey import StridedSurvey  # noqa: E402
from perfbench.viewer_mix import ViewerMix  # noqa: E402

VARIANTS = [
    ("archive-detect", ArchiveDetect, {}),
    ("archive-detect threads=1", ArchiveDetect, {"threads": 1}),
    ("archive-detect verify=False", ArchiveDetect, {"verify": False}),
    ("strided-survey", StridedSurvey, {}),
    ("strided-survey naive=True", StridedSurvey, {"naive": True}),
    ("viewer-mix", ViewerMix, {}),
    ("viewer-mix whole-archive cache", ViewerMix, {"cache_fraction": 2.0}),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    for label, cls, kwargs in VARIANTS:
        work = tempfile.mkdtemp(prefix="ref-", dir=base)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = measure(cls(seed=args.seed, root=work, **kwargs), args.seconds, False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        figures = "  ".join(
            f"{name}={m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()
        )
        print(f"{label:32s} correct={result['correct']}  {figures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

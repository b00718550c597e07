"""Golden check of `invert` at the frontier orders, outside tier-1.

Usage, from the root of a checkout:

    python3 tests/frontier_goldens.py

Each case writes a document, runs ``lagrange_forest.cli.main`` on it
in-process, and compares the sha256 of its standard output with the
recorded digest. The documents are dense (``helpers.dense_golden_doc``:
every key of size 1..N for every pinned color) except the ``cyclic`` one
(``helpers.cyclic_golden_doc``: two keys per pinned color, its successor
and itself with it). Values cycle through 1, -1/2, 1/2, -1, or for the
``query`` case through ``helpers.QUERY_POOL``, whose denominators are 1, 2,
3, 5 and 7. One line per case gives the verdict and the wall seconds of
the run. The exit code is 0 when every digest matches and 1 otherwise. The
outputs run to tens of kilobytes, so only their digests are kept; a
mismatch is located with the pinned tier-1 tests or by diffing the output
against an earlier checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from helpers import GOLDEN_VALUES, QUERY_POOL, cyclic_golden_doc, dense_golden_doc  # noqa: E402  (tests/ is the script's own directory)

from lagrange_forest import cli  # noqa: E402

#: (document builder, colors, order, extra argv, values, sha256 of stdout)
CASES = (
    (dense_golden_doc, "ab", 14, (), GOLDEN_VALUES,
     "a646f8de4ee5650614354c605699841e70a32275d16349da35575eeecfe6df36"),
    (dense_golden_doc, "abc", 10, (), GOLDEN_VALUES,
     "bd922c9a541a73b06369a883fc7b94e2a47d9e643b976d4dfae82c33bc21780e"),
    (dense_golden_doc, "abc", 10, ("--det",), GOLDEN_VALUES,
     "f1ece0b98b9bb0d0282fce4990207b7cb198dd160c7e14c7dddf9893f0a149ca"),
    (dense_golden_doc, "abcd", 8, ("--det",), GOLDEN_VALUES,
     "b514ae0f27f1faafd0d62fca751719d1690a8c6cbc9822faaa03f37b5ae5864d"),
    (dense_golden_doc, "abc", 12, ("--det",), GOLDEN_VALUES,
     "180b490c9db433911d5a23ea41b3e94715f063680fb210f624881a50553c2c38"),
    (dense_golden_doc, "abcd", 10, ("--det",), GOLDEN_VALUES,
     "49392d817829b045f5842a29695f10d420622ba459650e7a04e6483d746ff30a"),
    (dense_golden_doc, "abcd", 7, ("--det",), QUERY_POOL,
     "464a53c50753490aa53c9e320634f44aa4695dbd654f4633b8fd3db95ba5113a"),
    (cyclic_golden_doc, "abcde", 7, ("--det",), GOLDEN_VALUES,
     "dc8f6189ec2c354c56ab19b1d0b3f8c58644739dad34204624987942afc94aab"),
)


def run_case(
    directory: Path, build, colors: str, order: int, extra: tuple[str, ...], values
) -> tuple[int, str, float]:
    """Exit code, stdout sha256 and wall seconds of one `invert` run."""
    path = directory / f"{build.__name__}-{colors}-{order}.json"
    path.write_text(cli.dump_document(build(colors, order, values)))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["invert", str(path), *extra])
    seconds = time.perf_counter() - start
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), seconds


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for build, colors, order, extra, values, digest in CASES:
            code, got, seconds = run_case(Path(tmp), build, colors, order, extra, values)
            ok = code == 0 and got == digest
            failures += not ok
            label = " ".join(("invert", *extra, f"d={len(colors)}", f"N={order}"))
            label += " query" * (values is QUERY_POOL) + " cyclic" * (build is cyclic_golden_doc)
            detail = "" if ok else f" (exit {code}, sha256 {got})"
            print(f"{'PASS' if ok else 'FAIL'} {label}: {seconds:.2f} s{detail}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

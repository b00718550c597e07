"""Golden check of `invert` at the frontier orders, outside tier-1.

Usage, from the root of a checkout:

    python3 tests/frontier_goldens.py

Each case writes a document, runs ``lagrange_forest.cli.main`` on it
in-process, and checks its standard output. Most cases compare the sha256
of that output with the recorded digest. Their documents are dense
(``helpers.dense_golden_doc``: every key of size 1..N for every pinned
color) except the ``cyclic`` one (``helpers.cyclic_golden_doc``: two keys
per pinned color, its successor and itself with it). Values cycle through
1, -1/2, 1/2, -1, or for the ``query`` case through ``helpers.QUERY_POOL``,
whose denominators are 1, 2, 3, 5 and 7. The ``closed-form`` cases
(``helpers.linear_golden_doc``: kernels of size one, B every color but the
last) compare the ``tree`` and ``det`` column of every row with
``helpers.closed_form_inverse``, which shares no code with the package. One
line per case gives the verdict and the wall seconds of the run. A case that
runs longer than ``CASE_SECONDS`` is stopped and fails, as does one that
raises, and the script goes on with the next one. The exit code is 0 when
every case passes and 1 otherwise. The outputs run to tens of kilobytes, so
only their digests are kept; a mismatch is located with the pinned tier-1
tests or by diffing the output against an earlier checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from helpers import (  # noqa: E402  (tests/ is the script's own directory)
    GOLDEN_VALUES,
    LINEAR_VALUES,
    QUERY_POOL,
    closed_form_inverse,
    cyclic_golden_doc,
    dense_golden_doc,
    linear_golden_doc,
    size_one_matrix,
)

from lagrange_forest import cli  # noqa: E402

#: wall seconds one case may run, about three times the slowest case's time
CASE_SECONDS = 60

#: (document builder, colors, order, extra argv, values, sha256 of stdout, or
#: None to check every row against the closed form)
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
    (dense_golden_doc, "abcd", 12, ("--det",), GOLDEN_VALUES,
     "d8628e3e571197ac1d52e8de2064d5fab14718acf32814338e6f0da200553f5c"),
    (dense_golden_doc, "abc", 16, ("--det",), GOLDEN_VALUES,
     "cb175cf2e16330317540e0c341718f044978d7944e9f1b3bdb02d99f9cdcd9e1"),
    (linear_golden_doc, "abc", 10, ("--det",), LINEAR_VALUES, None),
    (linear_golden_doc, "abcd", 8, ("--det",), LINEAR_VALUES, None),
)


def run_case(
    directory: Path, build, colors: str, order: int, extra: tuple[str, ...], values, digest
) -> tuple[int, str, float]:
    """Exit code, what went wrong ("" if nothing) and wall seconds of one `invert` run."""
    doc = build(colors, order, values)
    path = directory / f"{build.__name__}-{colors}-{order}.json"
    path.write_text(cli.dump_document(doc))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["invert", str(path), *extra])
    seconds = time.perf_counter() - start
    if digest is not None:
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        return code, "" if got == digest else f"sha256 {got}", seconds
    result, a = json.loads(out.getvalue()), size_one_matrix(doc)
    for row in result["coefficients"]:
        expected = str(closed_form_inverse(a, result["B"], tuple(row["x"])))
        if not row["tree"] == row["det"] == expected:
            found = f"tree {row['tree']}, det {row['det']}, closed form {expected}"
            return code, f"at {row['x']}: {found}", seconds
    return code, "", seconds


class CaseTimeout(Exception):
    """A case ran past ``CASE_SECONDS``."""


def _time_out(signum, frame):
    raise CaseTimeout(f"stopped at the {CASE_SECONDS} s limit")


def main() -> int:
    failures = 0
    signal.signal(signal.SIGALRM, _time_out)
    with tempfile.TemporaryDirectory() as tmp:
        for build, colors, order, extra, values, digest in CASES:
            signal.alarm(CASE_SECONDS)
            start = time.perf_counter()
            try:
                code, wrong, seconds = run_case(
                    Path(tmp), build, colors, order, extra, values, digest
                )
            except Exception as exc:  # a case that runs out or raises fails alone
                code, wrong = None, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
            finally:
                signal.alarm(0)
            ok = code == 0 and not wrong
            failures += not ok
            label = " ".join(("invert", *extra, f"d={len(colors)}", f"N={order}"))
            label += " query" * (values is QUERY_POOL) + " cyclic" * (build is cyclic_golden_doc)
            label += " closed-form" * (digest is None)
            detail = "" if ok else f" ({wrong})" if code is None else f" (exit {code}, {wrong})"
            print(f"{'PASS' if ok else 'FAIL'} {label}: {seconds:.2f} s{detail}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

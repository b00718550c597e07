"""A seeded corpus of small runs whose expected stdout is checked in verbatim.

The documents take the shapes of the invert workloads of ``perfbench``,
drawn from this module's own random streams (it imports nothing from
``perfbench``): dense kernels, every key of size 1..N for every pinned
color, at d=2 N=6, d=3 N=6, d=2 N=7, d=3 N=5 and d=1 N=7; the one-color
kernel c*z at N=9; and the sparse two-entry family at d=2 N=8, each at two
seeds. A document's expected output is the stdout of ``invert --det``,
which carries both routes' columns; a verify run's is the stdout of
``verify all --N 5 --trials 1`` at d=2 and d=3 for the same two seeds.

The expected files live in ``tests/corpus/``, one per run. To rewrite them
from the package in ``src/``, run from the root of a checkout:

    python3 tests/corpus.py

An expected output changes only with a recorded reason for the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from math import comb
from pathlib import Path

if __name__ == "__main__":  # as a script: the package in this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from helpers import _golden_doc, dense_golden_doc  # noqa: E402

from lagrange_forest.cli import main  # noqa: E402

EXPECTED = Path(__file__).with_name("corpus")
POOL = ("1", "-1", "1/2", "-1/2")
SEEDS = (1, 2)


def _dense(d: int, order: int):
    def build(rng: random.Random) -> dict:
        keys = d * (comb(order + d, d) - 1)  # every key of size 1..order, per pinned color
        return dense_golden_doc("abc"[:d], order, [rng.choice(POOL) for _ in range(keys)])

    return build


def _one_color(rng: random.Random) -> dict:
    return _golden_doc("x", 9, [("x", ("x",))], [rng.choice(POOL)])


def _sparse(rng: random.Random) -> dict:
    # a pinned at (b), b pinned at (a, b)
    keys = [("a", ("b",)), ("b", ("a", "b"))]
    return _golden_doc("ab", 8, keys, [rng.choice(POOL) for _ in keys])


SHAPES = {
    "dense-d2-N6": _dense(2, 6),
    "dense-d3-N6": _dense(3, 6),
    "dense-d2-N7": _dense(2, 7),
    "dense-d3-N5": _dense(3, 5),
    "dense-d1-N7": _dense(1, 7),
    "one-color-N9": _one_color,
    "sparse-d2-N8": _sparse,
}


def cases() -> list[tuple[str, list[str], dict | None]]:
    """(name, argv, document or None) of every run, the document's path left out."""
    out = []
    for seed in SEEDS:
        for label, build in SHAPES.items():
            document = build(random.Random(f"corpus:{label}:{seed}"))
            out.append((f"invert-{label}-s{seed}", ["invert", "--det"], document))
        for d in (2, 3):
            argv = ["verify", "all", "--d", str(d), "--N", "5", "--trials", "1",
                    "--seed", str(seed)]
            out.append((f"verify-d{d}-s{seed}", argv, None))
    return out


def run(argv: list[str], document: dict | None, work: Path) -> tuple[int, str]:
    """Exit code and stdout of the command, a document written under ``work`` first."""
    if document is not None:
        path = work / "document.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _write_expected() -> None:
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, argv, document in cases():
            code, stdout = run(argv, document, Path(work))
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            (EXPECTED / f"{name}.txt").write_text(stdout, encoding="utf-8")
            print(name)


if __name__ == "__main__":
    _write_expected()

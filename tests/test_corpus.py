"""The corpus runs print their checked-in stdout byte for byte (see corpus.py)."""

import pytest

from corpus import EXPECTED, cases, run

CASES = cases()


@pytest.mark.parametrize("name, argv, document", CASES, ids=[name for name, _, _ in CASES])
def test_corpus_run_prints_its_expected_output(tmp_path, name, argv, document):
    code, stdout = run(argv, document, tmp_path)
    assert code == 0
    assert stdout == (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")


def test_corpus_covers_every_expected_file():
    assert {p.stem for p in EXPECTED.glob("*.txt")} == {name for name, _, _ in CASES}

"""Command-line behavior: documents, exit codes, round trips, enumeration."""

import hashlib
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrange_forest.cli import dump_document, main

from helpers import (
    QUERY_POOL,
    closed_form_inverse,
    dense_golden_doc,
    linear_golden_doc,
    size_one_matrix,
)


def write_doc(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(dump_document(payload) if isinstance(payload, dict) else payload)
    return str(path)


def cayley_doc(order=5):
    return {
        "colors": ["a"],
        "order": order,
        "kernels": [
            {"n": 1, "entries": [{"q": "a", "x": ["a"], "value": "1"}]}
        ],
    }


def zero_doc():
    return {"colors": ["a"], "order": 3, "kernels": []}


# ---------------------------------------------------------------------------
# invert


def test_invert_zero_kernel_gives_base_measure(tmp_path, capsys):
    config = write_doc(tmp_path, zero_doc())
    out = tmp_path / "result.json"
    code = main(["invert", config, "-o", str(out), "--det"])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["all_equal"] is True
    values = {tuple(row["x"]): row for row in result["coefficients"]}
    assert values[("a",)]["tree"] == "1"
    assert values[("a", "a")]["tree"] == "0"
    assert all(row["equal"] for row in result["coefficients"])


def test_invert_cayley_values(tmp_path):
    config = write_doc(tmp_path, cayley_doc(order=5))
    out = tmp_path / "result.json"
    code = main(["invert", config, "-o", str(out), "--det"])
    assert code == 0
    result = json.loads(out.read_text())
    values = {len(row["x"]): row["tree"] for row in result["coefficients"]}
    assert [values[n] for n in range(1, 6)] == ["1", "2", "9", "64", "625"]
    assert result["all_equal"] is True


@pytest.mark.parametrize(
    "c",
    [
        pytest.param(Fraction(-1, 2), id="minus-half"),
        pytest.param(Fraction(-(2**61 - 1), 3**20), id="wide-numerator-and-denominator"),
    ],
)
def test_invert_single_entry_kernel_at_order_twelve(tmp_path, c):
    # kernel c*z: the inverse of z*exp(-c*z) has coefficients c^(n-1) n^(n-1);
    # a partition-sum exponential would visit Bell(12) partitions per key
    doc = cayley_doc(order=12)
    doc["kernels"][0]["entries"][0]["value"] = str(c)
    out = tmp_path / "result.json"
    assert main(["invert", write_doc(tmp_path, doc), "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["coefficients"]
    values = {len(row["x"]): row["tree"] for row in rows}
    assert sorted(values) == list(range(1, 13))
    for n, value in values.items():
        assert Fraction(value) == c ** (n - 1) * n ** (n - 1), n


def test_invert_prints_rationals_past_the_int_digit_limit(tmp_path, capsys):
    # kernel c*z with a 2,500-digit c: the order-3 coefficient 9 c^2 has about
    # 5,000 digits, past Python's default int -> str limit of 4,300, which the
    # output lifts for its conversions only
    c = 10**2499 + 7
    doc = cayley_doc(order=3)
    doc["kernels"][0]["entries"][0]["value"] = str(c)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    assert main(["invert", write_doc(tmp_path, doc), "--det"]) == 0
    assert getattr(sys, "get_int_max_str_digits", int)() == limit
    rows = json.loads(capsys.readouterr().out)["coefficients"]
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = [str(c ** (n - 1) * n ** (n - 1)) for n in (1, 2, 3)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert [row["tree"] for row in rows] == expected
    assert [row["det"] for row in rows] == expected


@pytest.mark.parametrize(
    "value, code",
    [
        ("1" * 4300 + "/3", 0),
        ("-" + "1" * 4300 + "/" + "3" * 4300, 0),
        ("1" * 4301 + "/3", 2),
        ("1/" + "3" * 4301, 2),
        ("1" * 5000 + "/3", 2),
    ],
    ids=["p-4300", "p-and-q-4300", "p-4301", "q-4301", "p-5000"],
)
def test_invert_reads_p_and_q_of_at_most_4300_digits(tmp_path, capsys, value, code):
    # the grammar's limit: int() is quadratic in the digits
    doc = cayley_doc(order=1)
    doc["kernels"][0]["entries"][0]["value"] = value
    assert main(["invert", write_doc(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    if code:
        assert "invalid rational value" in err
        assert err.rstrip().endswith("(p and q of at most 4300 digits)")


def test_invert_respects_subset(tmp_path):
    doc = {
        "colors": ["a", "b"],
        "order": 2,
        "kernels": [],
        "B": ["b"],
    }
    config = write_doc(tmp_path, doc)
    out = tmp_path / "result.json"
    assert main(["invert", config, "-o", str(out)]) == 0
    result = json.loads(out.read_text())
    values = {tuple(row["x"]): row["tree"] for row in result["coefficients"]}
    assert values[("b",)] == "1"
    assert values[("a",)] == "0"


@pytest.mark.parametrize("flags", [[], ["--det"]], ids=["tree", "det"])
@pytest.mark.parametrize("order", [1, 2])
def test_invert_drops_kernel_entries_above_the_order(tmp_path, capsys, order, flags):
    # entries of size above the document order cannot reach a coefficient up
    # to the order: the output is the one of the document without them
    doc = dict(dense_golden_doc("ab", 3), order=order)
    assert main(["invert", write_doc(tmp_path, doc, "full.json"), *flags]) == 0
    with_entries = capsys.readouterr().out
    doc["kernels"] = [group for group in doc["kernels"] if group["n"] <= order]
    assert main(["invert", write_doc(tmp_path, doc, "cut.json"), *flags]) == 0
    assert with_entries == capsys.readouterr().out


def test_invert_malformed_rational_exits_2(tmp_path, capsys):
    doc = cayley_doc(order=2)
    doc["kernels"][0]["entries"][0]["value"] = "1/0"
    config = write_doc(tmp_path, doc)
    assert main(["invert", config]) == 2
    message = capsys.readouterr().err
    assert "1/0" in message
    # line-anchored: path:line
    with open(config, encoding="utf-8") as handle:
        expected_line = next(i for i, line in enumerate(handle, start=1) if '"1/0"' in line)
    assert f":{expected_line}" in message


def test_invert_bad_json_exits_2(tmp_path, capsys):
    config = write_doc(tmp_path, "{not json", name="broken.json")
    assert main(["invert", config]) == 2
    assert "broken.json" in capsys.readouterr().err


def test_invert_missing_file_exits_2(tmp_path):
    assert main(["invert", str(tmp_path / "absent.json")]) == 2


def test_invert_undeclared_label_exits_3(tmp_path, capsys):
    doc = cayley_doc(order=2)
    doc["kernels"][0]["entries"][0]["x"] = ["z"]
    config = write_doc(tmp_path, doc)
    assert main(["invert", config]) == 3
    assert "undeclared" in capsys.readouterr().err


def test_invert_invariant_violations_exit_3(tmp_path):
    bad_order = dict(zero_doc(), order=0)
    assert main(["invert", write_doc(tmp_path, bad_order, "o.json")]) == 3
    bad_arity = cayley_doc(order=2)
    bad_arity["kernels"][0]["entries"][0]["x"] = ["a", "a"]
    assert main(["invert", write_doc(tmp_path, bad_arity, "a.json")]) == 3
    constant_kernel = {
        "colors": ["a"],
        "order": 2,
        "kernels": [{"n": 0, "entries": [{"q": "a", "x": [], "value": "1"}]}],
    }
    assert main(["invert", write_doc(tmp_path, constant_kernel, "c.json")]) == 3


def _mutated(path, value):
    doc = cayley_doc(order=2)
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return dump_document(doc).encode()


@pytest.mark.parametrize(
    "content, code",
    [
        pytest.param(_mutated(["order"], True), 3, id="order-bool"),
        pytest.param(_mutated(["kernels", 0, "n"], True), 3, id="n-bool"),
        pytest.param(_mutated(["kernels", 0, "entries", 0, "value"], True), 2, id="value-bool"),
        pytest.param(_mutated(["kernels", 0, "entries"], 5), 2, id="entries-not-list"),
        pytest.param(_mutated(["kernels", 0, "entries", 0, "q"], ["a"]), 3, id="q-list"),
        pytest.param(_mutated(["kernels", 0, "entries", 0, "x"], [["a"]]), 3, id="x-nested-list"),
        pytest.param(_mutated(["B"], [["a"]]), 3, id="B-nested-list"),
        pytest.param(_mutated(["kernels", 0, "entries", 0, "value"], "1.5"), 2, id="value-decimal"),
        pytest.param(
            _mutated(["kernels", 0, "entries", 0, "value"], "1e100000000"), 2, id="value-exponent"
        ),
        pytest.param(_mutated(["kernels", 0, "entries", 0, "value"], " 1/2"), 2, id="value-space"),
        pytest.param(_mutated(["kernels", 0, "entries", 0, "value"], "1_0"), 2, id="value-underscore"),
        pytest.param(b'{"colors": ["\xff"], "order": 1, "kernels": []}', 2, id="not-utf8"),
        pytest.param(b'{"order": ' + b"1" * 5000 + b"}", 2, id="integer-over-digit-limit"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, 2, id="nesting-over-recursion-limit"),
    ],
)
def test_invert_malformed_document_exit_code(tmp_path, capsys, content, code):
    config = tmp_path / "problem.json"
    config.write_bytes(content)
    assert main(["invert", str(config)]) == code
    assert capsys.readouterr().err.startswith("error: ")


FUZZ_BASE = {
    "colors": ["a", "b"],
    "order": 2,
    "kernels": [
        {
            "n": 1,
            "entries": [
                {"q": "a", "x": ["a"], "value": "1"},
                {"q": "b", "x": ["a"], "value": "1/2"},
            ],
        },
        {"n": 2, "entries": [{"q": "a", "x": ["a", "b"], "value": "-1/3"}]},
    ],
    "B": ["a"],
}
FUZZ_FIELDS = (
    [("colors",), ("order",), ("B",)]
    + [("kernels", i, name) for i in (0, 1) for name in ("n", "entries")]
    + [
        ("kernels", i, "entries", j, name)
        for i, j in ((0, 0), (0, 1), (1, 0))
        for name in ("q", "x", "value")
    ]
)
# small ints only, so that no replaced order or size makes the work run away
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["a", "b", "", "1/2", "0/0", "-1", "1.5"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "entries", "q", "x", "value"]) | st.text(max_size=3),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), value=JSON_VALUES)
def test_invert_fuzzed_document_exits_with_a_documented_code(tmp_path_factory, field, value):
    doc = json.loads(json.dumps(FUZZ_BASE))
    *parents, last = field
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    config = tmp_path_factory.mktemp("fuzz") / "problem.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["invert", str(config)]) in (0, 1, 2, 3)
    assert main(["invert", str(config), "--det"]) in (0, 1, 2, 3)


def test_invert_order_override_lowers_only(tmp_path):
    config = write_doc(tmp_path, cayley_doc(order=4))
    out = tmp_path / "result.json"
    assert main(["invert", config, "-o", str(out), "--order", "2"]) == 0
    result = json.loads(out.read_text())
    assert result["order"] == 2
    assert max(row["n"] for row in result["coefficients"]) == 2
    assert main(["invert", config, "--order", "6"]) == 2


def test_invert_output_round_trips_byte_identical(tmp_path):
    config = write_doc(tmp_path, cayley_doc(order=3))
    out = tmp_path / "result.json"
    assert main(["invert", config, "-o", str(out), "--det"]) == 0
    raw = out.read_text()
    assert dump_document(json.loads(raw)) == raw


def test_invert_stdout_when_no_output_path(tmp_path, capsys):
    config = write_doc(tmp_path, zero_doc())
    assert main(["invert", config]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["colors"] == ["a"]


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_invert_unwritable_output_exits_2(tmp_path, capsys, target):
    config = write_doc(tmp_path, cayley_doc(order=3))
    out = tmp_path / "absent" / "result.json" if target == "missing-directory" else tmp_path
    assert main(["invert", config, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


def test_invert_accepts_phi_field(tmp_path):
    # phi is no longer read: like any unknown field it is ignored, even malformed
    plain = tmp_path / "plain.json"
    assert main(["invert", write_doc(tmp_path, zero_doc()), "-o", str(plain)]) == 0
    for name, phi in [
        ("well-formed", [{"n": 1, "entries": [{"x": ["a"], "value": "1/2"}]}]),
        ("malformed", [{"n": True, "entries": [{"x": ["z"], "value": "1.5"}]}]),
    ]:
        doc = dict(zero_doc(), phi=phi, comment="unknown fields are ignored")
        out = tmp_path / f"{name}.out.json"
        assert main(["invert", write_doc(tmp_path, doc, f"{name}.json"), "-o", str(out)]) == 0
        assert out.read_text() == plain.read_text()


def test_invert_mismatch_exits_1(tmp_path, monkeypatch):
    # force a disagreement between the two routes to exercise the exit code
    import lagrange_forest.cli as cli_module

    def skewed(kernels, subset, key):
        from fractions import Fraction

        return Fraction(1, 7)

    monkeypatch.setattr(cli_module, "inverse_via_determinant", skewed)
    config = write_doc(tmp_path, cayley_doc(order=2))
    out = tmp_path / "result.json"
    assert main(["invert", config, "-o", str(out), "--det"]) == 1
    result = json.loads(out.read_text())
    assert result["all_equal"] is False
    assert any(not row["equal"] for row in result["coefficients"])


# `invert --det` stdout of five documents: the two-color ones were recorded
# before the kernel family became a family of series, the three-color one
# before the per-key exponential was built on the key's down-set, the
# four-color one, where the series and the query tables both have four axes,
# before the splits came from one shared builder, and the QUERY_POOL one,
# whose kernel denominators 1, 2, 3, 5 and 7 grade the determinant by a
# common denominator that is none of them, before the determinant was
# eliminated in integers. A change of the series representation, of the
# determinant or of the query must leave every byte alone
def sparse_golden_doc():
    # the two-entry family a <- b, b <- ab
    return {
        "colors": ["a", "b"],
        "order": 6,
        "kernels": [
            {"n": 1, "entries": [{"q": "a", "x": ["b"], "value": "1/2"}]},
            {"n": 2, "entries": [{"q": "b", "x": ["a", "b"], "value": "-1"}]},
        ],
    }


@pytest.mark.parametrize(
    "doc, digest, rows, tree_values",
    [
        (
            dense_golden_doc(),
            "141797debc6285cdefb787b29c9e4b05d654489b8f9275054a28fe502bb2a198",
            20,
            {("a", "a", "a"): "21/2", ("a", "b", "b", "b"): "26", ("b",) * 5: "3985/16"},
        ),
        (
            sparse_golden_doc(),
            "4b0c57f71bf0db36de624aa50798103cfe7698cd8e99dffa64e9a1e74f35dcce",
            27,
            {("a", "b", "b"): "-7/4", ("a", "a", "b", "b", "b"): "12", ("a",) + ("b",) * 5: "-79/32"},
        ),
        (
            dense_golden_doc("abc", 5),
            "4fe3ba3be7592e4d431cffd731696536df38c360730c188160c9ae5fb9d18ba6",
            55,
            {("a", "a", "a"): "6", ("a", "b", "b", "c", "c"): "177/16", ("c",) * 5: "4455/4"},
        ),
        (
            dense_golden_doc("abcd", 5),
            "29aa11fdab9334b0da08cf7705bceb7d5d956392270eb493a55665a37590b529",
            125,
            {("a", "b", "c", "d"): "-9/4", ("a", "b", "b", "c", "d"): "-65/16", ("d",) * 5: "5545/16"},
        ),
        (
            dense_golden_doc("abc", 4, QUERY_POOL),
            "76f7d56fd7dc80fcd1503aedeac6e3583b1420a69b37ea01394a89cd16283cb5",
            34,
            {("a", "a", "a"): "36/5", ("b", "c"): "184467440737095516161/2",
             ("c",) * 4: "13281655733070877163864/3"},
        ),
    ],
    ids=["dense-d2-N5", "sparse-two-entry-N6", "dense-d3-N5", "dense-d4-N5", "query-d3-N4"],
)
def test_invert_det_stdout_is_pinned(tmp_path, capsys, doc, digest, rows, tree_values):
    assert main(["invert", write_doc(tmp_path, doc), "--det"]) == 0
    printed = capsys.readouterr().out
    result = json.loads(printed)
    assert result["all_equal"] is True
    assert len(result["coefficients"]) == rows
    by_key = {tuple(row["x"]): row for row in result["coefficients"]}
    for key, value in tree_values.items():
        assert by_key[key]["tree"] == by_key[key]["det"] == value
    assert hashlib.sha256(printed.encode()).hexdigest() == digest


# `invert` stdout (the tree route alone) past the orders pinned above: every
# composition of the fixed point runs at sizes up to 9 and 7 here
@pytest.mark.parametrize(
    "colors, order, digest, rows",
    [
        ("ab", 9, "19892f3ab28b18cf3ddb7959b80874f1eec535889f74cd2b9b7f73e6727a8d8b", 54),
        ("abc", 7, "4945441a75e1623380564e811a3082e85120416fc1408abc12fc9a91ba676841", 119),
    ],
    ids=["dense-d2-N9", "dense-d3-N7"],
)
def test_invert_tree_stdout_is_pinned(tmp_path, capsys, colors, order, digest, rows):
    assert main(["invert", write_doc(tmp_path, dense_golden_doc(colors, order))]) == 0
    printed = capsys.readouterr().out
    assert len(json.loads(printed)["coefficients"]) == rows
    assert hashlib.sha256(printed.encode()).hexdigest() == digest


def test_invert_matches_the_closed_form_for_kernels_of_size_one(tmp_path, capsys):
    # both routes against the Lagrange–Good closed form, code that shares
    # nothing with the package: B is every color but one, and the kernels
    # are linear with denominators 1, 2 and 3
    doc = linear_golden_doc("abc", 8)
    assert main(["invert", write_doc(tmp_path, doc), "--det"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["B"] == ["a", "b"] and len(result["coefficients"]) == 164
    a = size_one_matrix(doc)
    for row in result["coefficients"]:
        expected = str(closed_form_inverse(a, result["B"], tuple(row["x"])))
        assert row["tree"] == row["det"] == expected, row["x"]


# ---------------------------------------------------------------------------
# verify


def test_verify_all_small(capsys):
    code = main(["verify", "all", "--seed", "1", "--d", "2", "--N", "4", "--trials", "3"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS lagrange-good" in printed
    assert "PASS magic" in printed
    assert "FAIL" not in printed


def test_verify_magic_d1(capsys):
    assert main(["verify", "magic", "--d", "1", "--N", "3"]) == 0
    # a passing run prints one line per identity and no reproduce line
    assert capsys.readouterr().out == "PASS magic (3 trials)\n"


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_bad_flags_exit_2(capsys):
    assert main(["verify", "magic", "--d", "0"]) == 2


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_partitions_bell(capsys):
    assert main(["enumerate", "partitions", "--n", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "15"


def test_enumerate_trees_single_vertex(capsys):
    assert main(["enumerate", "trees", "--n", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"


def test_enumerate_crowns_single_vertex(capsys):
    assert main(["enumerate", "crowns", "--n", "1", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "1->1 ; P(1)={1}"


def test_enumerate_maps_with_sink(capsys):
    assert main(["enumerate", "maps", "--n", "1", "--sinks", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2"


def test_enumerate_listing_matches_count(capsys):
    assert main(["enumerate", "maps", "--n", "2", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == int(lines[0]) + 1


def test_enumerate_determinism(capsys):
    main(["enumerate", "maps", "--n", "3", "--list"])
    first = capsys.readouterr().out
    main(["enumerate", "maps", "--n", "3", "--list"])
    assert capsys.readouterr().out == first


def test_enumerate_cap_violation_exits_2(capsys):
    assert main(["enumerate", "maps", "--n", "9", "--sinks", "1"]) == 2
    assert main(["enumerate", "partitions", "--n", "12"]) == 2
    # one vertex past the cap of six is refused before any work starts
    assert main(["enumerate", "maps", "--n", "7"]) == 2
    assert main(["enumerate", "trees", "--n", "6"]) == 2
    assert main(["enumerate", "crowns", "--n", "7"]) == 2
    assert main(["enumerate", "partitions", "--n", "7"]) == 2
    assert capsys.readouterr().err.count("error: ") == 6


@pytest.mark.parametrize(
    "argv",
    [["maps", "--n", "2", "--sinks", "200000"], ["trees", "--n", "200000"],
     ["crowns", "--n", "200000"]],
    ids=["maps", "trees", "crowns"],
)
def test_enumerate_refuses_from_the_sizes_before_allocating(argv, capsys):
    # building the vertex lists first would allocate megabytes before the refusal
    tracemalloc.start()
    try:
        assert main(["enumerate", *argv]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "exceeds the cap of 6" in capsys.readouterr().err

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prfeas.cli import (
    EXIT_DATA,
    EXIT_DUAL,
    EXIT_EPSILON,
    EXIT_INTERNAL,
    EXIT_REJECTED,
    EXIT_USAGE,
    _may_hold_literals,
    _read_json,
    dump_certificate,
    dump_problem,
    load_certificate,
    load_problem,
    main,
    solve_report,
    witness_from_json,
    witness_to_json,
)
from prfeas.certify import Certificate, generate_planted, verify_p_certificate
from prfeas import oracle
from prfeas.oracle import (
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    WitnessedColumn,
)
from prfeas.solver import SolveCounters, SolveOutcome, main_algorithm


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def wide_lp_file(tmp_path, capsys):
    """A problem file of 20,000 columns at m = 3, after a first read has
    imported the JSON parser."""
    path = str(tmp_path / "lp.json")
    invoke(capsys, "generate", "--kind", "lp", "--m", "3", "--n", "20000",
           "--output", path)
    _read_json(write_json(tmp_path / "tiny.json", []), lambda doc: doc)
    return path


def axes_problem(tmp_path, name="axes.json"):
    return write_json(tmp_path / name, {
        "schema": 1, "type": "lp", "m": 2,
        "columns": [[1.0, 0.0], [0.0, 1.0]],
    })


def antipodal_problem(tmp_path, name="anti.json"):
    return write_json(tmp_path / name, {
        "schema": 1, "type": "lp", "m": 2,
        "columns": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    })


def wedge_problem(tmp_path, name="wedge.json"):
    return write_json(tmp_path / name, {
        "schema": 1, "type": "lp", "m": 2,
        "columns": [[1.0, 1e-3], [-1.0, 1e-3]],
    })


def thin_cone_problem(tmp_path):
    # a triangular cone around (0, 0, 1), too thin for four contractions;
    # the wedge above becomes feasible after one
    return write_json(tmp_path / "thin_cone.json", {
        "schema": 1, "type": "lp", "m": 3,
        "columns": [[1.0, 0.0, 1e-3], [-1.0, 1.0, 1e-3], [0.0, -1.0, 1e-3]],
    })


class TestProblemFileFormat:
    def test_lp_round_trip(self):
        inst = FiniteLp(np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 3.0]]))
        again = load_problem(dump_problem(inst))
        assert isinstance(again, FiniteLp)
        assert np.array_equal(again.columns, inst.columns)

    def test_sdp_round_trip(self):
        mats = np.array([[[1.0, 0.25], [0.25, 2.0]],
                         [[0.0, 1.0], [1.0, 0.0]]])
        inst = Sdp(mats)
        again = load_problem(dump_problem(inst))
        assert isinstance(again, Sdp)
        assert np.array_equal(again.matrices, inst.matrices)

    def test_socp_round_trip(self):
        inst = Socp(np.array([[1.0, 0.2, 0.0, 3.0],
                              [0.0, 1.0, 0.5, -1.0]]), blocks=(3, 1))
        again = load_problem(dump_problem(inst))
        assert isinstance(again, Socp)
        assert again.blocks == inst.blocks
        assert np.array_equal(again.A, inst.A)

    @pytest.mark.parametrize("doc", [
        {"schema": 1, "type": "lp", "m": 2,
         "columns": [[1.5e308, 1.5e308], [-1.5e308, -1.5e308]]},
        {"schema": 1, "type": "lp", "m": 2,
         "columns": [[1.5e308, 1.0], [3e-300, 4e-300], [1.0, 2.0]]},
        {"schema": 1, "type": "sdp", "m": 2, "n": 2,
         "matrices": [[[1.5e308, 0.0], [0.0, -1.5e308]],
                      [[0.25, 1.0], [1.0, 0.0]]]},
        {"schema": 1, "type": "sdp", "m": 1, "n": 2,
         "matrices": [[[3e-300, 1e-310], [1e-310, -4e-300]]]},
        {"schema": 1, "type": "socp", "m": 2, "blocks": [1, 2, 1],
         "A": [[1.5e308, 3e-300, 0.0, 1.0], [1.5e308, 0.0, 4e-300, 2.0]]}])
    def test_data_out_of_range_round_trips_as_given(self, doc):
        # the instance stores out-of-range units scaled into range, and
        # writes them back as given
        inst = load_problem(doc)
        assert dump_problem(inst) == doc
        assert json.dumps(dump_problem(load_problem(dump_problem(inst)))) \
            == json.dumps(doc)

    def test_lp_file_round_trip_is_exact(self, tmp_path):
        cols = np.random.default_rng(3).standard_normal((20, 2000))
        inst = FiniteLp(cols)
        path = write_json(tmp_path / "lp.json", dump_problem(inst))
        again = _read_json(path, load_problem)
        assert again.columns.tobytes() == inst.columns.tobytes()

    @pytest.mark.parametrize("m,n", [(5, 40), (10, 200)])
    @pytest.mark.parametrize("target", ["feasible_d", "feasible_p"])
    def test_loaded_lp_solves_to_the_in_process_bytes(self, m, n, target):
        # the file holds rows of columns, and the loader transposes them;
        # the instance stores them C-ordered, as generate_planted does, so
        # every product sums in the same order
        for seed in (1, 2, 3):
            inst = generate_planted("lp", m, n, seed, target)[0]
            again = load_problem(dump_problem(inst))
            assert again.columns.flags.c_contiguous
            assert json.dumps(solve_report(main_algorithm(again), None)) \
                == json.dumps(solve_report(main_algorithm(inst), None))

    def test_columns_of_the_wrong_length_are_malformed(self, tmp_path,
                                                       capsys):
        prob = write_json(tmp_path / "p.json", {
            "schema": 1, "type": "lp", "m": 3, "columns": [[1, 0], [0, 1]]})
        code, out = invoke(capsys, "solve", "--input", prob)
        assert code == EXIT_DATA
        assert json.loads(out)["error"] == \
            "\"columns\" must be a list of length-m columns"

    def test_custom_oracle_has_no_file_encoding(self):
        with pytest.raises(TypeError, match="only lp/sdp/socp instances"):
            dump_problem(CustomOracle(2, lambda y: None))

    def test_socp_is_stored_c_ordered(self):
        A = np.random.default_rng(3).standard_normal((4, 12))
        inst = Socp(np.asfortranarray(A), (3, 4, 5))
        assert inst.A.flags.c_contiguous
        assert inst.A.tobytes() == Socp(A, (3, 4, 5)).A.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=40))
    def test_finite_doubles_read_back_bit_identical(self, values):
        with tempfile.TemporaryDirectory() as d:
            path = write_json(Path(d) / "v.json", values)
            back = _read_json(path, lambda doc: doc)
        assert all(type(v) is float for v in back)
        assert np.array(back, dtype=float).tobytes() == \
            np.array(values, dtype=float).tobytes()

    def test_reading_a_file_starts_no_collection(self, tmp_path, capsys):
        # 20,000 column lists would start dozens of collections
        path = wide_lp_file(tmp_path, capsys)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            _read_json(path, load_problem)
            collections = len(starts)
            # the document was freed before the collector resumed, so no
            # collection is due to walk it
            pending = gc.get_count()[0]
        finally:
            gc.callbacks.remove(count)
        assert collections == 0
        assert pending < gc.get_threshold()[0]

    def test_file_bytes_are_not_held_while_loading(self, tmp_path, capsys):
        path = wide_lp_file(tmp_path, capsys)
        peaks = []
        for load in (lambda doc: doc, load_problem):
            tracemalloc.start()
            try:
                _read_json(path, load)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the arrays are built once the bytes are freed, so loading adds
        # well under the file's size to the parse's own peak
        assert peaks[1] < peaks[0] + Path(path).stat().st_size / 2

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("malformed", [False, True])
    def test_reading_restores_the_collector_state(self, tmp_path, capsys,
                                                   enabled, malformed):
        path = tmp_path / "doc.json"
        path.write_text("[[1.0, 2.0]" if malformed else "[[1.0, 2.0]]")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if malformed:
                code, _ = invoke(capsys, "solve", "--input", str(path))
                assert code == EXIT_DATA
            else:
                assert _read_json(str(path), lambda doc: doc) == [[1.0, 2.0]]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("doc", [
        [],
        {"schema": 2, "type": "lp", "m": 1, "columns": [[1.0]]},
        {"schema": 1, "type": "qp"},
        {"schema": 1, "type": "lp", "m": 2},
        {"schema": 1, "type": "lp", "m": 2, "columns": [[1.0], [1.0, 2.0]]},
        {"schema": 1, "type": "sdp", "m": 1, "n": 2,
         "matrices": [[[1.0, 0.0]]]},
        {"schema": 1, "type": "socp", "m": 1, "blocks": [2],
         "A": [1.0, 0.0]},
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            load_problem(doc)

    @pytest.mark.parametrize("doc, entry", [
        ({"schema": 1, "type": "lp", "m": 2,
          "columns": [["1", True], [0, 1]]}, 'columns[0][0] must be a '
                                             'number, got "1"'),
        ({"schema": 1, "type": "lp", "m": 2,
          "columns": [[1, True], [0, 1]]},
         "columns[0][1] must be a number, got true"),
        ({"schema": 1, "type": "sdp", "m": 1, "n": 2,
          "matrices": [[[1, 0], [0, False]]]},
         "matrices[0][1][1] must be a number, got false"),
        ({"schema": 1, "type": "socp", "m": 2, "blocks": [2],
          "A": [[1, 0], ["0.5", 1]]},
         'A[1][0] must be a number, got "0.5"'),
    ], ids=["lp string", "lp boolean", "sdp boolean", "socp string"])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_strings_and_booleans_in_arrays_exit_65(self, tmp_path, capsys,
                                                      doc, entry, command):
        # numpy reads "1" and true as 1: such an LP used to solve feasible
        prob = write_json(tmp_path / "p.json", doc)
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": [1.0, 1.0]})
        argv = ["--input", prob] + (["--certificate", cert]
                                    if command == "verify" else [])
        code, out = invoke(capsys, command, *argv)
        assert code == EXIT_DATA
        assert json.loads(out) == {"schema": 1,
                                   "error": f"problem entry {entry}"}

    @pytest.mark.parametrize("weight, entry", [
        ({"witness": {"type": "lp_index", "i": 0}, "x": "1"},
         'x must be a number, got "1"'),
        ({"witness": {"type": "sdp_vector", "v": [1.0, False]}, "x": 1.0},
         "v[1] must be a number, got false"),
        ({"witness": {"type": "custom", "label": "c",
                      "column": [[1.0], [True]]}, "x": 1.0},
         "column[1][0] must be a number, got true"),
    ], ids=["x", "v", "column"])
    def test_certificate_entry_that_is_not_a_number_is_named(
            self, tmp_path, capsys, weight, entry):
        # the walk of a problem's arrays walks a certificate's numbers too
        docs = [({"schema": 1, "kind": "d", "y": [1.0, True]},
                 "y[1] must be a number, got true"),
                ({"schema": 1, "kind": "p", "weights": [weight]}, entry)]
        prob = axes_problem(tmp_path)
        for doc, named in docs:
            cert = write_json(tmp_path / "c.json", doc)
            code, out = invoke(capsys, "verify", "--input", prob,
                               "--certificate", cert)
            assert code == EXIT_DATA
            assert json.loads(out) == {"schema": 1,
                                       "error": f"certificate entry {named}"}

    def test_integral_float_schema_marker_is_one(self, tmp_path, capsys):
        # "schema": 1.0 reads as 1, as "m": 2.0 reads as 2
        prob = write_json(tmp_path / "p.json", {
            "schema": 1.0, "type": "lp", "m": 2.0,
            "columns": [[1.0, 0.0], [0.0, 1.0]]})
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1.0, "kind": "d", "y": [1.0, 1.0]})
        code, _ = invoke(capsys, "verify", "--input", prob,
                         "--certificate", cert)
        assert code == 0

    @pytest.mark.parametrize("kind", ["lp", "sdp", "socp"])
    def test_written_files_pass_the_byte_screen_unwalked(
            self, tmp_path, capsys, kind, monkeypatch):
        # the arrays of a file whose bytes hold no literal are not walked
        path = str(tmp_path / "p.json")
        invoke(capsys, "generate", "--kind", kind, "--m", "3", "--n", "12",
               "--output", path)
        raw = Path(path).read_bytes()
        assert not _may_hold_literals(raw, json.loads(raw))

        def walked(value, where):
            raise AssertionError("the arrays were walked")

        monkeypatch.setattr("prfeas.cli._check_numbers", walked)
        code, _ = invoke(capsys, "solve", "--input", path)
        assert code == 0

    @pytest.mark.parametrize("text", [
        '{"schema": 1, "type": "lp", "m": 1, "columns": [["1"]]}',
        '{"schema": 1, "type": "lp", "m": 1, "columns": [[true]]}',
        '{"schema": 1, "type": "lp", "m": 1, "columns": [[false]]}',
        '{"schema": 1, "type": "lp", "m": 1, "columns": [[Infinity]]}',
        '{"schema": 1, "type": "lp", "m": 1, "columns": [[1]], "a\\"": 1}',
        '{"schema": 1, "type": "lp", "m": 1, "columns": [[1]], "x": {"y": 1}}',
        '{"schema": 1, "type": "lp", "type": "lp", "m": 1, '
        '"columns": [[1]]}',
        '[["1"]]',
    ], ids=["string", "true", "false", "Infinity", "escaped quote",
            "nested key", "repeated key", "not an object"])
    def test_byte_screen_fires_on_what_may_hold_literals(self, text):
        raw = text.encode()
        assert _may_hold_literals(raw, json.loads(raw))

    @pytest.mark.parametrize("kind,doc", [
        ("problem", {"schema": 1, "type": "socp", "m": 1, "blocks": 5,
                     "A": [[1.0, 0.0, 0.0, 0.0, 0.0]]}),
        ("problem", {"schema": 1, "type": "lp", "m": None,
                     "columns": [[1.0]]}),
        ("problem", {"schema": 1, "type": "sdp", "m": 1, "n": [2],
                     "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}),
        ("problem", {"schema": 1, "type": "lp", "m": float("inf"),
                     "columns": [[1.0]]}),
        ("certificate", {"schema": 1, "kind": "d", "y": {"a": 1}}),
        ("certificate", {"schema": 1, "kind": "p",
                         "weights": [{"witness": 5, "x": 1.0}]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "lp_index", "i": float("inf")},
             "x": 1.0}]}),
        ("problem", {"schema": 1, "type": "lp", "m": 2.7,
                     "columns": [[1.0, 0.0]]}),
        ("problem", {"schema": 1, "type": "lp", "m": True,
                     "columns": [[1.0]]}),
        ("problem", {"schema": 1, "type": "sdp", "m": 1, "n": 2.5,
                     "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}),
        ("problem", {"schema": 1, "type": "socp", "m": 1, "blocks": [2.9],
                     "A": [[1.0, 0.0]]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "lp_index", "i": 1.9}, "x": 1.0}]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "lp_index", "i": True}, "x": 1.0}]}),
        ("problem", {"schema": 1, "type": "lp", "m": 2,
                     "columns": [[1.0, float("nan")]]}),
        # an integer beyond the float range, and strings and booleans
        # where a certificate needs JSON numbers or arrays
        ("certificate", {"schema": 1, "kind": "d", "y": [10**400, 1]}),
        ("certificate", {"schema": 1, "kind": "d", "y": ["1", True]}),
        ("certificate", {"schema": 1, "kind": "d", "y": [1, True]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "lp_index", "i": 0}, "x": "1"}]}),
        ("sdp certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "sdp_vector", "v": "010"}, "x": 1}]}),
        ("socp certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "socp_vector", "v": "100"}, "x": 1}]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "custom", "label": 0, "column": ["1", 0]},
             "x": 1}]}),
        # the marker is an integer by strict_int's rule: true is not 1
        ("problem", {"schema": True, "type": "lp", "m": 1,
                     "columns": [[1.0]]}),
        ("certificate", {"schema": True, "kind": "d", "y": [1.0, 1.0]}),
    ])
    def test_wrongly_typed_fields_are_data_errors(self, tmp_path, capsys,
                                                  kind, doc):
        path = write_json(tmp_path / "doc.json", doc)
        if kind == "problem":
            argv = ["solve", "--input", path]
        else:
            with pytest.raises(ValueError):
                load_certificate(doc)
            problem = write_json(tmp_path / "problem.json", {
                "certificate": {"schema": 1, "type": "lp", "m": 2,
                                "columns": [[1.0, 0.0], [0.0, 1.0]]},
                "sdp certificate": {"schema": 1, "type": "sdp", "m": 1,
                                    "n": 3, "matrices": [np.eye(3).tolist()]},
                "socp certificate": {"schema": 1, "type": "socp", "m": 1,
                                     "blocks": [3], "A": [[1.0, 0.0, 0.0]]},
            }[kind])
            argv = ["verify", "--input", problem, "--certificate", path]
        code, out = invoke(capsys, *argv)
        assert code == EXIT_DATA
        assert "error" in json.loads(out)


# Arbitrary JSON values, and documents shaped like problem and certificate
# files whose fields are drawn from plausible and arbitrary values alike.
JSON_SCALARS = (st.none() | st.booleans()
                | st.integers(min_value=-2**70, max_value=2**70)
                | st.floats() | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
NUMBERS = st.integers(min_value=-3, max_value=3) | st.floats()
ARRAYS = st.recursive(NUMBERS, lambda inner: st.lists(inner, max_size=4),
                      max_leaves=24) | JSON_VALUES
SIZES = st.integers(min_value=-1, max_value=4) | JSON_VALUES
DIMS = st.integers(min_value=1, max_value=3)


def vectors(size):
    return st.lists(NUMBERS, min_size=size, max_size=size)


@st.composite
def shaped_problems(draw):
    """Documents of the right shape, whose numbers may still be invalid."""
    kind = draw(st.sampled_from(["lp", "sdp", "socp"]))
    m = draw(DIMS)
    if kind == "lp":
        cols = draw(st.lists(vectors(m), min_size=1, max_size=3))
        return {"schema": 1, "type": "lp", "m": m, "columns": cols}
    if kind == "sdp":
        n = draw(DIMS)
        mats = []
        for _ in range(m):
            X = np.zeros((n, n))
            X[np.triu_indices(n)] = draw(vectors(n * (n + 1) // 2))
            mats.append(np.triu(X, 1).T + np.triu(X))
        return {"schema": 1, "type": "sdp", "m": m, "n": n,
                "matrices": [X.tolist() for X in mats]}
    blocks = draw(st.lists(DIMS, min_size=1, max_size=3))
    return {"schema": 1, "type": "socp", "m": m, "blocks": blocks,
            "A": [draw(vectors(sum(blocks))) for _ in range(m)]}


PROBLEM_DOCS = shaped_problems() | st.fixed_dictionaries(
    {"schema": st.just(1),
     "type": st.sampled_from(["lp", "sdp", "socp"]) | JSON_VALUES},
    optional={"m": SIZES, "n": SIZES, "columns": ARRAYS, "matrices": ARRAYS,
              "A": ARRAYS, "blocks": ARRAYS})
WITNESSES = st.one_of(
    st.fixed_dictionaries({"type": st.just("lp_index"), "i": SIZES}),
    st.fixed_dictionaries({"type": st.sampled_from(["sdp_vector",
                                                    "socp_vector"]),
                           "v": st.lists(NUMBERS, max_size=3)}),
    st.fixed_dictionaries({"type": st.just("custom"), "label": JSON_VALUES},
                          optional={"column": st.lists(NUMBERS,
                                                       max_size=3)}),
    st.fixed_dictionaries(
        {"type": st.sampled_from(["lp_index", "sdp_vector", "socp_vector",
                                  "custom"]) | JSON_VALUES},
        optional={"i": SIZES, "v": ARRAYS, "label": JSON_VALUES,
                  "column": ARRAYS}),
    JSON_VALUES)
WEIGHT_ENTRIES = st.fixed_dictionaries(
    {"witness": WITNESSES, "x": NUMBERS}) | st.fixed_dictionaries(
    {}, optional={"witness": WITNESSES, "x": NUMBERS | JSON_VALUES})
CERTIFICATE_DOCS = st.one_of(
    st.fixed_dictionaries({"schema": st.just(1), "kind": st.just("d"),
                           "y": st.lists(NUMBERS, max_size=3)}),
    st.fixed_dictionaries({"schema": st.just(1), "kind": st.just("p"),
                           "weights": st.lists(WEIGHT_ENTRIES, min_size=1,
                                               max_size=3)}),
    st.fixed_dictionaries(
        {"schema": st.just(1),
         "kind": st.sampled_from(["d", "p"]) | JSON_VALUES},
        optional={"y": ARRAYS, "weights": st.lists(WEIGHT_ENTRIES,
                                                   max_size=3)
                  | JSON_VALUES}))


def rejects(loader, doc):
    """True when ``loader`` rejects ``doc``; any error but ValueError
    escapes and fails the calling test."""
    try:
        loader(doc)
    except ValueError:
        return True
    return False


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    json.loads(out.getvalue())  # stdout is exactly one document
    return code


class TestLoaderProperties:
    @settings(max_examples=250, deadline=None)
    @given(JSON_VALUES | PROBLEM_DOCS)
    def test_problem_loads_or_is_a_data_error(self, doc):
        rejects(load_problem, doc)

    @settings(max_examples=250, deadline=None)
    @given(JSON_VALUES | CERTIFICATE_DOCS)
    def test_certificate_loads_or_is_a_data_error(self, doc):
        rejects(load_certificate, doc)

    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES | PROBLEM_DOCS)
    def test_solve_exits_65_on_a_rejected_problem(self, doc):
        # the solver is stubbed by a declaration of epsilon = 1, so only
        # the reader, the loader and the exit-code mapping run
        declared = SolveOutcome("epsilon_declared", None, None, 1.0, 72,
                                SolveCounters(), None)
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr("prfeas.cli.main_algorithm",
                       lambda instance, epsilon: declared)
            path = write_json(Path(d) / "p.json", doc)
            rejected = rejects(load_problem,
                               _read_json(path, lambda doc: doc))
            code = run_cli(["solve", "--input", path, "--log-level",
                            "error"])
        assert code == (EXIT_DATA if rejected else EXIT_EPSILON)

    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES | CERTIFICATE_DOCS)
    def test_verify_exits_65_on_a_rejected_certificate(self, doc):
        with tempfile.TemporaryDirectory() as d:
            prob = axes_problem(Path(d))
            path = write_json(Path(d) / "c.json", doc)
            rejected = rejects(load_certificate,
                               _read_json(path, lambda doc: doc))
            code = run_cli(["verify", "--input", prob, "--certificate", path,
                            "--log-level", "error"])
        # a certificate that loads may still name no column of the problem
        assert code in (0, EXIT_REJECTED, EXIT_DATA)
        assert code == EXIT_DATA or not rejected


class TestCertificateFormat:
    @pytest.mark.parametrize("w", [
        LpIndex(3),
        SdpVector((0.6, 0.8)),
        SocpVector((1.0, -0.5, 0.0)),
        CustomWitness(0.25),
    ])
    def test_bare_witness_round_trip(self, w):
        assert witness_from_json(witness_to_json(w)) == w

    def test_built_in_column_is_not_written(self):
        wc = WitnessedColumn(LpIndex(3), np.array([1.0, -1.0]), exponent=5)
        assert witness_to_json(wc) == {"type": "lp_index", "i": 3}

    def test_custom_column_round_trip(self):
        wc = WitnessedColumn(CustomWitness(0.25), np.array([1.0, -1.0]))
        back = witness_from_json(witness_to_json(wc))
        assert isinstance(back, WitnessedColumn)
        assert back.witness == wc.witness and back.exponent == 0
        assert np.array_equal(back.column, wc.column)

    def test_custom_column_is_written_as_given(self):
        wc = WitnessedColumn(CustomWitness("t"),
                             np.array([-1e200, 1.0])).in_range(2)
        assert wc.exponent == 281
        assert witness_to_json(wc)["column"] == [-1e200, 1.0]

    def test_unknown_witness_type_rejected(self):
        with pytest.raises(ValueError):
            witness_from_json({"type": "bogus"})

    def test_unknown_witness_object_is_not_encoded(self):
        with pytest.raises(TypeError, match="unknown witness type object"):
            witness_to_json(object())

    def test_range_scaled_custom_dual_survives_json_round_trip(self):
        # the oracle hands out -1e200 as -1e200 * 2^-281; the file carries
        # weights on the columns as given, so it must carry those columns
        def fn(y):
            return WitnessedColumn(CustomWitness("t"), np.array(
                [-1e200 if y[0] > 0 else 1.0]))

        inst = CustomOracle(1, fn)
        out = main_algorithm(inst)
        assert out.status == "dual_certificate"
        assert any(w.exponent for w, _ in out.weights)
        assert verify_p_certificate(inst, out.weights).accepted
        doc = dump_certificate(Certificate(kind="p", y=None,
                                           weights=out.weights))
        assert solve_report(out, None)["weights"] == doc["weights"]
        cert = load_certificate(json.loads(json.dumps(doc)))
        assert verify_p_certificate(inst, cert.weights).accepted

    def test_numpy_scalar_label_is_written_as_its_value(self):
        # columns (1, 0), (-1, 0) and (0, 1): the first two cancel
        cols = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])

        def fn(y):
            margins = y @ cols
            t = np.argmin(margins)
            if margins[t] > 0.0:
                return None
            return WitnessedColumn(CustomWitness(t), cols[:, t])

        inst = CustomOracle(2, fn)
        out = main_algorithm(inst)
        assert out.status == "dual_certificate"
        assert out.verification.accepted
        doc = json.loads(json.dumps(solve_report(out, None)))
        labels = [e["witness"]["label"] for e in doc["weights"]]
        assert labels and all(type(t) is int for t in labels)
        cert = load_certificate({"schema": 1, "kind": "p",
                                 "weights": doc["weights"]})
        assert [w.witness.label for w, _ in cert.weights] == labels
        assert verify_p_certificate(inst, cert.weights).accepted

    def test_tuple_label_comes_back_as_a_list(self):
        doc = json.loads(json.dumps(witness_to_json(CustomWitness((0.5, 2)))))
        assert witness_from_json(doc) == CustomWitness([0.5, 2])


class TestSolveCommand:
    def test_feasible_exit_zero(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path))
        report = json.loads(out)
        assert code == 0
        assert report["status"] == "feasible"
        assert report["verification"]["accepted"] is True
        assert report["wall_ms"] is None
        assert report["weights"] is None

    def test_dual_exit_one_and_certificate(self, tmp_path, capsys):
        cert_path = tmp_path / "out_cert.json"
        code, out = invoke(capsys, "solve", "--input",
                           antipodal_problem(tmp_path),
                           "--certificate", str(cert_path))
        report = json.loads(out)
        assert code == EXIT_DUAL
        assert report["status"] == "dual_certificate"
        assert report["y"] is None
        cert = json.loads(cert_path.read_text())
        assert cert["kind"] == "p"
        assert all(e["x"] > 0 for e in cert["weights"])
        code, out = invoke(capsys, "verify", "--input",
                           antipodal_problem(tmp_path),
                           "--certificate", str(cert_path))
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_feasible_certificate_is_the_reports_direction(self, tmp_path,
                                                           capsys):
        prob = axes_problem(tmp_path)
        cert_path = tmp_path / "d_cert.json"
        code, out = invoke(capsys, "solve", "--input", prob,
                           "--certificate", str(cert_path))
        assert code == 0
        cert = json.loads(cert_path.read_text())
        assert cert == {"schema": 1, "kind": "d", "y": json.loads(out)["y"]}
        code, out = invoke(capsys, "verify", "--input", prob,
                           "--certificate", str(cert_path))
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_epsilon_writes_no_certificate(self, tmp_path):
        cert_path = tmp_path / "none.json"
        res = subprocess.run(
            [sys.executable, "-m", "prfeas.cli", "solve", "--input",
             thin_cone_problem(tmp_path), "--epsilon", "0.5",
             "--certificate", str(cert_path)],
            capture_output=True, text=True)
        assert res.returncode == EXIT_EPSILON
        assert json.loads(res.stdout)["status"] == "epsilon_declared"
        assert "no certificate to write for an epsilon declaration" \
            in res.stderr
        assert not cert_path.exists()

    def test_unexpected_exception_is_an_internal_error(self, tmp_path,
                                                        capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("solver fault")

        monkeypatch.setattr("prfeas.cli.main_algorithm", fail)
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path))
        assert code == EXIT_INTERNAL
        assert json.loads(out) == {"schema": 1,
                                   "error": "internal error: solver fault"}

    def test_epsilon_exit_two(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           thin_cone_problem(tmp_path), "--epsilon", "0.5")
        report = json.loads(out)
        assert code == EXIT_EPSILON
        assert report["status"] == "epsilon_declared"
        assert report["counters"]["rescalings"] == report["s_star"] == 4
        assert report["verification"] is None

    def test_timing_flag_fills_wall_ms(self, tmp_path, capsys):
        # the flag changes the wall_ms value and not one other byte
        prob = wedge_problem(tmp_path)
        code, timed = invoke(capsys, "solve", "--input", prob, "--timing")
        assert code == 0
        _, plain = invoke(capsys, "solve", "--input", prob)
        wall_ms = json.loads(timed)["wall_ms"]
        assert wall_ms > 0.0
        assert json.loads(plain)["wall_ms"] is None
        assert timed.replace(f'"wall_ms": {json.dumps(wall_ms)}',
                             '"wall_ms": null') == plain

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        prob = wedge_problem(tmp_path)
        _, first = invoke(capsys, "solve", "--input", prob)
        _, second = invoke(capsys, "solve", "--input", prob)
        assert first == second

    def test_invalid_epsilon_is_usage_error(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path), "--epsilon", "2.0")
        assert code == EXIT_USAGE
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("eps", ["-3", "0", "1", "nan"])
    def test_epsilon_outside_the_open_unit_interval(self, tmp_path, capsys,
                                                    eps):
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path), "--epsilon", eps)
        assert code == EXIT_USAGE
        assert json.loads(out) == {
            "schema": 1,
            "error": "epsilon must lie strictly between 0 and 1"}

    def test_least_subnormal_epsilon_solves(self, tmp_path, capsys):
        # 1/epsilon overflows there; the budget is taken without it
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path), "--epsilon", "5e-324")
        assert code == 0
        assert json.loads(out)["s_star"] == 3855

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        # as is a directory; the error names the path
        for path in (str(tmp_path / "nope.json"), str(tmp_path)):
            code, out = invoke(capsys, "solve", "--input", path)
            assert code == EXIT_DATA
            assert path in json.loads(out)["error"]

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"schema": 1, "type": "lp", "m": 2, "columns": [[1.0, 0.0], [0.',
        "[" * 5000 + "]" * 5000,
    ], ids=["not-json", "truncated-mid-array", "nested-5000-deep"])
    def test_unparseable_json_is_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out = invoke(capsys, "solve", "--input", str(bad))
        assert code == EXIT_DATA
        assert "is not valid JSON" in json.loads(out)["error"]

    def test_sdp_inside_definiteness_band_declares_epsilon(self, tmp_path,
                                                           capsys):
        # lambda_min = 1e-7 <= 1e-12 * 1e6: the oracle rejects the only
        # direction with a column of positive margin, which cuts nothing
        prob = write_json(tmp_path / "band.json", {
            "schema": 1, "type": "sdp", "m": 1, "n": 2,
            "matrices": [[[1e6, 0.0], [0.0, 1e-7]]],
        })
        code, out = invoke(capsys, "solve", "--input", prob)
        report = json.loads(out)
        assert code == EXIT_EPSILON
        assert report["status"] == "epsilon_declared"
        assert report["epsilon"] == 1.0
        assert report["counters"]["rescalings"] == 0

    def test_sdp_entry_near_float_max_solves(self, tmp_path, capsys):
        # symmetrizing 1.5e308 must not overflow to an infinite matrix
        prob = write_json(tmp_path / "huge.json", {
            "schema": 1, "type": "sdp", "m": 1, "n": 1,
            "matrices": [[[1.5e308]]],
        })
        code, out = invoke(capsys, "solve", "--input", prob)
        report = json.loads(out)
        assert code == 0
        assert report["status"] == "feasible"
        assert report["verification"]["accepted"] is True

    def test_sdp_pair_near_float_max_gives_dual(self, tmp_path, capsys):
        # diag(1.5e308, -1.5e308): the witnesses e2 and e1 give the columns
        # -1.5e308 and 1.5e308, whose squares overflow
        prob = write_json(tmp_path / "pair.json", {
            "schema": 1, "type": "sdp", "m": 1, "n": 2,
            "matrices": [[[1.5e308, 0], [0, -1.5e308]]],
        })
        cert = str(tmp_path / "pair.cert.json")

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        code, out = invoke(capsys, "solve", "--input", prob,
                           "--certificate", cert)
        report = json.loads(out, parse_constant=reject_constant)
        assert code == EXIT_DUAL
        assert report["status"] == "dual_certificate"
        assert len(report["weights"]) == 2
        assert report["verification"]["accepted"] is True
        code, out = invoke(capsys, "verify", "--input", prob,
                           "--certificate", cert)
        assert code == 0
        assert json.loads(out, parse_constant=reject_constant)["accepted"]

    def test_lp_columns_near_float_max_give_dual(self, tmp_path, capsys):
        # ||(1.5e308, 1.5e308)|| itself overflows; the two columns cancel
        prob = write_json(tmp_path / "lp_huge.json", {
            "schema": 1, "type": "lp", "m": 2,
            "columns": [[1.5e308, 1.5e308], [-1.5e308, -1.5e308]],
        })
        cert = str(tmp_path / "lp_huge.cert.json")
        code, out = invoke(capsys, "solve", "--input", prob,
                           "--certificate", cert)
        report = json.loads(out)
        assert code == EXIT_DUAL
        assert report["status"] == "dual_certificate"
        assert sorted(w["witness"]["i"] for w in report["weights"]) \
            == [0, 1]
        assert report["verification"]["accepted"] is True
        code, out = invoke(capsys, "verify", "--input", prob,
                           "--certificate", cert)
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_socp_witness_built_on_read_writes_the_same_bytes(
            self, tmp_path, capsys, monkeypatch):
        # socp_query's witnesses build their entries when the certificate
        # reads them; a solve whose witnesses are built whole at the query,
        # from all n entries, must write the same file
        inst = generate_planted("socp", 20, 200, 1, "feasible_p")[0]
        prob = write_json(tmp_path / "socp.json", dump_problem(inst))

        def whole(cls, n, start, entries):
            v = np.zeros(n)
            v[start : start + entries.size] = entries
            return cls(tuple(v.tolist()))

        files = []
        for eager in (False, True):
            if eager:
                monkeypatch.setattr(oracle.SocpVector, "_on_block",
                                    classmethod(whole))
            cert = tmp_path / f"cert{int(eager)}.json"
            code, out = invoke(capsys, "solve", "--input", prob,
                               "--certificate", str(cert))
            assert code == EXIT_DUAL
            files.append(cert.read_bytes())
        assert files[0] == files[1]
        assert len(json.loads(files[0])["weights"][0]["witness"]["v"]) == 200

    def test_socp_columns_near_float_max_give_dual(self, tmp_path, capsys):
        # ||(1.5e308, 1.5e308)|| overflows, so blocks 0 and 1 are stored
        # scaled into range; they cancel
        prob = write_json(tmp_path / "socp_huge.json", {
            "schema": 1, "type": "socp", "m": 2, "blocks": [1, 1, 1],
            "A": [[1.5e308, -1.5e308, 1.0], [1.5e308, -1.5e308, 0.0]],
        })
        cert = str(tmp_path / "socp_huge.cert.json")
        code, out = invoke(capsys, "solve", "--input", prob,
                           "--certificate", cert)
        report = json.loads(out)
        assert code == EXIT_DUAL
        assert len(report["weights"]) == 2
        assert report["verification"]["accepted"] is True
        code, out = invoke(capsys, "verify", "--input", prob,
                           "--certificate", cert)
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_vanishing_socp_block_gives_one_atom_dual(self, tmp_path,
                                                      capsys):
        # A^T y = (5, 3, 4) y lies on the cone's boundary for y > 0, and
        # its witness v = (1, -3/5, -4/5) gives A v = 0
        prob = write_json(tmp_path / "socp_zero.json", {
            "schema": 1, "type": "socp", "m": 1, "blocks": [3],
            "A": [[5, 3, 4]],
        })
        cert = str(tmp_path / "socp_zero.cert.json")
        code, out = invoke(capsys, "solve", "--input", prob,
                           "--certificate", cert)
        report = json.loads(out)
        assert code == EXIT_DUAL
        assert report["status"] == "dual_certificate"
        assert len(report["weights"]) == 1
        assert report["weights"][0]["witness"]["type"] == "socp_vector"
        assert report["verification"]["accepted"] is True
        code, out = invoke(capsys, "verify", "--input", prob,
                           "--certificate", cert)
        assert code == 0
        assert json.loads(out)["accepted"] is True


class TestVerifyCommand:
    @pytest.mark.parametrize("kind,m,n", [("socp", 5, 40), ("sdp", 4, 6),
                                          ("lp", 5, 40)])
    def test_planted_direction_near_float_max_is_accepted(
            self, tmp_path, capsys, kind, m, n):
        # A^T y and sum_i y_i A_i overflow at this y as given; the queries
        # and the margin take it at its unit direction 2^-1024 y, and the
        # margin, which is finite, is reported at y
        inst, cert = generate_planted(kind, m, n, 1, "feasible_d")
        y = cert.y / abs(cert.y).max() * 1.7e308
        prob = write_json(tmp_path / "p.json", dump_problem(inst))
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": y.tolist()})
        code, out = invoke(capsys, "verify", "--input", prob,
                           "--certificate", cert)
        assert code == 0, out
        # the instance as the CLI reads it
        inst = _read_json(prob, load_problem)
        margin = json.loads(out)["details"]["min_margin"]
        assert margin == math.ldexp(inst.min_margin(np.ldexp(y, -1024)), 1024)
        assert margin > 1e307

    @pytest.mark.parametrize("problem", [
        {"type": "lp", "m": 2, "columns": [[-1.0, -1.0]]},
        {"type": "socp", "m": 2, "blocks": [1],
         "A": [[-1.0], [-1.0]]},
        {"type": "sdp", "m": 2, "n": 1, "matrices": [[[-1.0]], [[-1.0]]]}],
        ids=["lp", "socp", "sdp"])
    def test_subnormal_direction_is_rejected(self, tmp_path, capsys,
                                             problem):
        # y is taken at its unit direction 2^1074 y, where the column is
        # violated; the report is standard JSON
        prob = write_json(tmp_path / "p.json", {"schema": 1, **problem})
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": [1e-310, 1e-310]})
        code, out = invoke(capsys, "verify", "--input", prob,
                           "--certificate", cert)
        assert code == EXIT_REJECTED, out
        report = json.loads(out)
        assert report["accepted"] is False
        assert report["details"]["violation"] <= 0.0

    def test_rejected_certificate_exit_three(self, tmp_path, capsys):
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": [1.0, 0.0]})
        code, out = invoke(capsys, "verify", "--input",
                           axes_problem(tmp_path), "--certificate", cert)
        assert code == EXIT_REJECTED
        assert json.loads(out)["accepted"] is False

    def test_empty_direction_is_data_error(self, tmp_path, capsys):
        # the verifier takes only a y of length m
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": []})
        code, out = invoke(capsys, "verify", "--input",
                           axes_problem(tmp_path), "--certificate", cert)
        assert code == EXIT_DATA
        assert json.loads(out).keys() == {"schema", "error"}

    def test_nonpositive_weight_is_data_error(self, tmp_path, capsys):
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p",
            "weights": [{"witness": {"type": "lp_index", "i": 0},
                         "x": -1.0}],
        })
        code, _ = invoke(capsys, "verify", "--input",
                         antipodal_problem(tmp_path),
                         "--certificate", cert)
        assert code == EXIT_DATA

    def test_cross_kind_witness_is_data_error(self, tmp_path, capsys):
        sdp = write_json(tmp_path / "sdp.json", {
            "schema": 1, "type": "sdp", "m": 1, "n": 1,
            "matrices": [[[1.0]]],
        })
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p",
            "weights": [{"witness": {"type": "lp_index", "i": 0},
                         "x": 1.0}],
        })
        code, _ = invoke(capsys, "verify", "--input", sdp,
                         "--certificate", cert)
        assert code == EXIT_DATA

    @pytest.mark.parametrize("problem,witness", [
        ({"schema": 1, "type": "sdp", "m": 1, "n": 2,
          "matrices": [[[1.0, 0.0], [0.0, -1.0]]]},
         {"type": "sdp_vector", "v": [float("nan"), 1.0]}),
        ({"schema": 1, "type": "socp", "m": 1, "blocks": [2],
          "A": [[1.0, 0.5]]},
         {"type": "socp_vector", "v": [1.0, float("nan")]}),
    ], ids=["sdp", "socp"])
    def test_non_finite_witness_vector_is_data_error(self, tmp_path, capsys,
                                                     problem, witness):
        inp = write_json(tmp_path / "p.json", problem)
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p",
            "weights": [{"witness": witness, "x": 1.0}],
        })
        code, out = invoke(capsys, "verify", "--input", inp,
                           "--certificate", cert)
        assert code == EXIT_DATA

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        assert "error" in json.loads(out, parse_constant=reject_constant)

    def test_margin_that_overflows_to_nan_is_rejected(self, tmp_path,
                                                      capsys):
        # y @ a_0 is inf + inf - inf - inf = NaN, while the true margin is
        # exactly 0: a violation, reported as a finite number
        inp = write_json(tmp_path / "p.json", {
            "schema": 1, "type": "lp", "m": 4,
            "columns": [[1e308, 1e308, -1e308, -1e308], [1, 1, 1, 1]],
        })
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "d", "y": [1e30, 1e30, 1e30, 1e30]})
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = invoke(capsys, "verify", "--input", inp,
                               "--certificate", cert)
        assert code == EXIT_REJECTED

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        report = json.loads(out, parse_constant=reject_constant)
        assert report["accepted"] is False
        # the margin at the unit-scaled y is rounding on a true 0
        assert report["details"]["violation"] <= 0.0
        assert report["residual"] <= 0.0

    def test_combination_whose_scale_overflows_is_rejected(self, tmp_path,
                                                           capsys):
        # the witnesses e1 and e2 give the columns (1.5e308, 1.5e308) and
        # (-1.5e308, -1e308): sum x_t ||a_t|| overflows, the sum does not
        inp = write_json(tmp_path / "p.json", {
            "schema": 1, "type": "sdp", "m": 2, "n": 2,
            "matrices": [[[1.5e308, 0], [0, -1.5e308]],
                         [[1.5e308, 0], [0, -1.0e308]]]})
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p", "weights": [
                {"witness": {"type": "sdp_vector", "v": [1, 0]}, "x": 1},
                {"witness": {"type": "sdp_vector", "v": [0, 1]}, "x": 1}]})
        code, out = invoke(capsys, "verify", "--input", inp,
                           "--certificate", cert)
        assert code == EXIT_REJECTED

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        report = json.loads(out, parse_constant=reject_constant)
        assert report["accepted"] is False
        assert report["residual"] > 0.1

    def test_sdp_column_that_overflows_is_reported_finite(self, tmp_path,
                                                          capsys):
        # v^T A v = 3e308 overflows for v = (2^-1/2, 2^-1/2); the residual
        # of the columns taken from the matrices stored times 2^-640 is
        # that of the matrices as given
        inp = write_json(tmp_path / "p.json", {
            "schema": 1, "type": "sdp", "m": 1, "n": 2,
            "matrices": [[[1.5e308, 1.5e308], [1.5e308, 1.5e308]]]})
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p", "weights": [
                {"witness": {"type": "sdp_vector", "v": [2**-0.5, 2**-0.5]},
                 "x": 1},
                {"witness": {"type": "sdp_vector", "v": [1, 0]}, "x": 1}]})
        code, out = invoke(capsys, "verify", "--input", inp,
                           "--certificate", cert)
        assert code == EXIT_REJECTED

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        report = json.loads(out, parse_constant=reject_constant)
        assert report["accepted"] is False
        assert report["residual"] == 1.0

    def test_margin_that_overflows_to_infinity_is_reported_finite(
            self, tmp_path, capsys):
        # y @ a = 2e308 overflows; the margin is reported at y scaled by
        # a power of two to below unit norm
        inp = write_json(tmp_path / "p.json", {
            "schema": 1, "type": "lp", "m": 2, "columns": [[1.0, 1.0]]})
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "d", "y": [1e308, 1e308]})
        with np.errstate(over="ignore"):
            code, out = invoke(capsys, "verify", "--input", inp,
                               "--certificate", cert)
        assert code == 0

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        report = json.loads(out, parse_constant=reject_constant)
        assert report["accepted"] is True
        assert 0.0 < report["residual"] <= 2.0

    def test_margin_of_data_near_float_max_is_reported_finite(
            self, tmp_path, capsys):
        # the column as given is (1.5e308, 1.5e308): its margin 1.8e308
        # at y, of norm below 1, overflows; it is reported at y times
        # 2^-384, standard JSON
        inp = write_json(tmp_path / "p.json", {
            "schema": 1, "type": "lp", "m": 2,
            "columns": [[1.5e308, 1.5e308]]})
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "d", "y": [0.6, 0.6]})
        code, out = invoke(capsys, "verify", "--input", inp,
                           "--certificate", cert)
        assert code == 0

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        report = json.loads(out, parse_constant=reject_constant)
        assert report["accepted"] is True
        assert report["residual"] == report["details"]["min_margin"] > 0.0

    def test_unknown_witness_type_is_data_error(self, tmp_path, capsys):
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p",
            "weights": [{"witness": {"type": "mystery"}, "x": 1.0}],
        })
        code, _ = invoke(capsys, "verify", "--input",
                         antipodal_problem(tmp_path),
                         "--certificate", cert)
        assert code == EXIT_DATA


class TestGenerateCommand:
    def test_emits_problem_document(self, capsys):
        code, out = invoke(capsys, "generate", "--kind", "socp",
                           "--m", "2", "--n", "6", "--seed", "9")
        doc = json.loads(out)
        assert code == 0
        assert doc["type"] == "socp"
        assert sum(doc["blocks"]) == 6
        load_problem(doc)

    def test_written_files_solve_and_verify(self, tmp_path, capsys):
        prob = tmp_path / "p.json"
        cert = tmp_path / "c.json"
        code, out = invoke(capsys, "generate", "--kind", "sdp",
                           "--m", "3", "--n", "4", "--seed", "2",
                           "--target", "feasible_p",
                           "--output", str(prob),
                           "--certificate", str(cert))
        assert code == 0
        assert json.loads(out)["written"]["problem"] == str(prob)
        code, out = invoke(capsys, "verify", "--input", str(prob),
                           "--certificate", str(cert))
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        _, first = invoke(capsys, "generate", "--kind", "lp",
                          "--m", "3", "--n", "8", "--seed", "4")
        _, second = invoke(capsys, "generate", "--kind", "lp",
                           "--m", "3", "--n", "8", "--seed", "4")
        assert first == second

    @pytest.mark.parametrize("unwritable", ["--output", "--certificate"])
    def test_unwritable_file_leaves_no_file(self, tmp_path, capsys,
                                            unwritable):
        # both files are written or neither: a problem file without its
        # certificate, or a certificate without its problem, is left by no
        # failed run
        paths = {"--output": tmp_path / "p.json",
                 "--certificate": tmp_path / "c.json",
                 unwritable: tmp_path / "missing" / "out.json"}
        code, out = invoke(capsys, "generate", "--kind", "lp", "--m", "3",
                           "--n", "10", *(str(t) for kv in paths.items()
                                          for t in kv))
        assert code == EXIT_DATA
        assert str(paths[unwritable]) in json.loads(out)["error"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (("lp", "0", "5", "feasible_d", "0"), "m and n must be positive"),
        (("lp", "2", "1", "feasible_p", "0"),
         "feasible_p needs at least two columns"),
        (("sdp", "2", "1", "feasible_p", "0"),
         "sdp feasible_p requires n >= 2"),
        (("socp", "2", "1", "feasible_p", "0"),
         "socp feasible_p requires n >= 2"),
        (("lp", "3", "10", "feasible_d", "-1"), "seed must be at least 0"),
    ])
    def test_bad_argument_is_usage_error(self, capsys, argv, message):
        # an argument out of range is a usage error, not malformed input:
        # generate reads no input
        kind, m, n, target, seed = argv
        code, out = invoke(capsys, "generate", "--kind", kind, "--m", m,
                           "--n", n, "--target", target, "--seed", seed)
        assert code == EXIT_USAGE
        assert json.loads(out)["error"] == message


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert invoke(capsys, )[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "solve", "--frobnicate")[0] == EXIT_USAGE

    def test_missing_required_argument(self, capsys):
        assert invoke(capsys, "solve")[0] == EXIT_USAGE

    def test_bad_choice(self, capsys):
        assert invoke(capsys, "generate", "--kind", "milp",
                      "--m", "2", "--n", "2")[0] == EXIT_USAGE

    def test_unparsed_command_line_is_indented_and_on_stderr(self, capsys):
        # written like every other document
        code = main(["solve"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        error = json.loads(captured.out)["error"]
        assert captured.out == \
            json.dumps({"schema": 1, "error": error}, indent=2) + "\n"
        assert captured.err == f"usage error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--json-indent", "4"],
        ["verify", "--kind", "p"],
        ["solve", "--max-rescalings", "3"],
    ], ids=["json-indent", "verify-kind", "max-rescalings"])
    def test_removed_options_are_usage_errors(self, tmp_path, capsys, argv):
        # every document is indented by 2, a certificate's own kind picks
        # its verifier, and epsilon alone bounds a solve
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": [1.0, 1.0]})
        code, out = invoke(capsys, *argv, "--input", axes_problem(tmp_path),
                           "--certificate", cert)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in json.loads(out)["error"]

    def test_solve_help_lists_no_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--epsilon" in out
        assert "--mode" not in out


class TestRepeatedCalls:
    """``main`` called many times in one process, as the benchmark and
    these tests call it."""

    def test_log_level_of_each_call_holds(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            import prfeas.cli
            prob = {str(tmp_path / "p.json")!r}
            for first, second in (("warning", "info"), ("info", "error")):
                prfeas.cli.main(["generate", "--kind", "lp", "--m", "3",
                                 "--n", "10", "--output", prob,
                                 "--log-level", first])
                prfeas.cli.main(["solve", "--input", prob,
                                 "--log-level", second])
                sys.stderr.write("--\\n")
        """)
        res = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        info, error, _ = res.stderr.split("--\n")
        assert "solve finished" in info
        assert "solve finished" not in error

    def test_calls_leave_little_for_the_collector(self, tmp_path, capsys):
        # a parser built per call is a web of reference cycles that only
        # a collection frees; the parser is built once per process.  The
        # first call, which may import the JSON parser, is not counted
        prob = axes_problem(tmp_path)
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": [1.0, 1.0]})
        argv = ["verify", "--input", prob, "--certificate", cert]
        was = gc.isenabled()
        gc.disable()
        try:
            main(argv)
            gc.collect()
            codes = [main(argv) for _ in range(10)]
            left = gc.collect()
        finally:
            if was:
                gc.enable()
        capsys.readouterr()
        assert codes == [0] * 10
        assert left < 500


class TestModuleEntry:
    def test_subprocess_single_json_document(self, tmp_path):
        prob = axes_problem(tmp_path)
        res = subprocess.run(
            [sys.executable, "-m", "prfeas.cli", "solve",
             "--input", prob, "--log-level", "info"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        report = json.loads(res.stdout)  # stdout is exactly one document
        assert report["status"] == "feasible"
        assert "solve finished" in res.stderr

    def test_json_reader_imported_on_first_read(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            import prfeas, prfeas.cli
            before = "pydantic_core" in sys.modules
            prob = {str(tmp_path / "p.json")!r}
            cert = {str(tmp_path / "c.json")!r}
            prfeas.cli.main(["generate", "--kind", "lp", "--m", "3", "--n",
                             "10", "--output", prob, "--certificate", cert])
            generated = "pydantic_core" in sys.modules
            code = prfeas.cli.main(["verify", "--input", prob,
                                    "--certificate", cert])
            print(before, generated, code, "pydantic_core" in sys.modules)
        """)
        res = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "False False 0 True"

    def test_two_hash_seeds_give_the_same_bytes(self, tmp_path):
        # no dict or set order reaches a report or a certificate: a solve
        # of 11 inner runs writes the same bytes under two hash seeds
        inst = generate_planted("socp", 20, 200, 1, "feasible_p")[0]
        prob = write_json(tmp_path / "socp.json", dump_problem(inst))
        outputs = []
        for seed in ("1", "2"):
            cert = tmp_path / f"cert{seed}.json"
            res = subprocess.run(
                [sys.executable, "-m", "prfeas.cli", "solve", "--input", prob,
                 "--certificate", str(cert)],
                capture_output=True, env={**os.environ,
                                          "PYTHONHASHSEED": seed})
            assert res.returncode == EXIT_DUAL, res.stderr
            assert json.loads(res.stdout)["counters"]["bp_calls"] == 11
            outputs.append((res.stdout, cert.read_bytes()))
        assert outputs[0] == outputs[1]
        assert main(["verify", "--input", prob,
                     "--certificate", str(cert)]) == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--input", "{prob}", "--certificate", "{missing}"],
        ["generate", "--kind", "lp", "--m", "3", "--n", "10",
         "--output", "{missing}"],
        ["generate", "--kind", "lp", "--m", "3", "--n", "10",
         "--certificate", "{missing}"],
    ], ids=["solve certificate", "generate output", "generate certificate"])
    def test_unwritable_file_is_data_error(self, tmp_path, argv):
        # one error document names the path; no traceback reaches stderr
        missing = str(tmp_path / "missing" / "out.json")
        argv = [a.format(prob=axes_problem(tmp_path), missing=missing)
                for a in argv]
        res = subprocess.run([sys.executable, "-m", "prfeas.cli", *argv],
                             capture_output=True, text=True)
        assert res.returncode == EXIT_DATA
        doc = json.loads(res.stdout)
        assert doc.keys() == {"schema", "error"} and doc["schema"] == 1
        assert missing in doc["error"]
        assert res.stderr == ""

    def test_help_exits_zero(self):
        res = subprocess.run(
            [sys.executable, "-m", "prfeas.cli", "--help"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "solve" in res.stdout and "verify" in res.stdout

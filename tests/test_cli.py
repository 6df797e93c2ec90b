import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pigraphs import families, verify
from pigraphs.cli import build_parser, main
from pigraphs.semigroups import to_json_dict
from pigraphs.verify import CheckResult, SuiteResult
from test_semigroups import first_failing_triple, light_test_bases


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_isn(tmp_path, capsys):
    out = tmp_path / "sg.json"
    code, _, err = run(capsys, "build", "--family", "isn", "--n", "2",
                       "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 7
    assert doc["zero"] == 0 and doc["family"] == "isn"
    assert "order=7" in err


def test_build_brandt(tmp_path, capsys):
    out = tmp_path / "sg.json"
    code, _, _ = run(capsys, "build", "--family", "brandt",
                     "--group-order", "2", "--indices", "2",
                     "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["order"] == 9


def test_build_left_zero_with_zero(tmp_path, capsys):
    out = tmp_path / "sg.json"
    code, _, _ = run(capsys, "build", "--family", "leftzero", "--n", "3",
                     "--adjoin-zero", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 4 and doc["zero"] == 3


def test_build_invalid_params(capsys):
    code, _, err = run(capsys, "build", "--family", "isn", "--n", "9")
    assert code == 2 and "error" in err
    # IS_6 runs in pig verify, but its 177,608,929-entry table is not
    # gathered, let alone written
    code, out, err = run(capsys, "build", "--family", "isn", "--n", "6")
    assert (code, out, err) == (
        2, "", "error: the table of order 13327 is too large to read whole\n")
    # other families stop at the IS_5 order, 1,546, and a Brandt order is
    # r^2 |G| + 1; IS_n stops at n = 6, and suite all, whose semilattice
    # stops at n = 5, refuses n = 6 before running IS_6
    for argv in (["build", "--family", "cyclic", "--n", "100000"],
                 ["verify", "--suite", "isn", "--n", "7"],
                 ["verify", "--suite", "all", "--n", "6"],
                 ["build", "--family", "leftzero", "--n", "1547"],
                 ["build", "--family", "brandt", "--indices", "0"],
                 ["verify", "--suite", "brandt", "--group-order", "2",
                  "--indices", "28"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv
    # suite all names its own bound before any suite runs, at either end
    for n in ("6", "0", "-1"):
        assert run(capsys, "verify", "--suite", "all", "--n", n) == (
            2, "", "error: suite all supports 1 <= n <= 5\n")


def test_graph_spig_edges(tmp_path, capsys):
    sg = tmp_path / "sg.json"
    run(capsys, "build", "--family", "isn", "--n", "2", "--out", str(sg))
    code, out, _ = run(capsys, "graph", "--input", str(sg), "--side", "left",
                       "--variant", "spig", "--format", "edges")
    assert code == 0
    assert out == "0 2\n1 2\n"


def test_graph_brandt_json(tmp_path, capsys):
    sg = tmp_path / "sg.json"
    run(capsys, "build", "--family", "brandt", "--group-order", "1",
        "--indices", "2", "--out", str(sg))
    gpath = tmp_path / "g.json"
    code, _, _ = run(capsys, "graph", "--input", str(sg), "--format", "json",
                     "--out", str(gpath))
    assert code == 0
    doc = json.loads(gpath.read_text())
    assert doc["order"] == 4 and len(doc["edges"]) == 2


def test_unlabelled_table_graphs_name_vertices_by_element(tmp_path, capsys):
    # element 0 is the zero, so the one vertex is element 1
    sg = tmp_path / "sg.json"
    sg.write_text(json.dumps({"table": [[0, 0], [0, 1]]}))
    graph = ["graph", "--input", str(sg)]
    for side in ("left", "right"):
        code, out, _ = run(capsys, *graph, "--side", side, "--format", "dot")
        assert code == 0 and out == 'graph {\n  "1";\n}\n'
        code, out, _ = run(capsys, *graph, "--side", side)
        assert code == 0 and json.loads(out)["labels"] == ["1"]
        code, out, _ = run(capsys, *graph, "--side", side, "--variant", "spig")
        assert code == 0 and json.loads(out)["labels"] == ["[1]"]


def test_graph_output_is_deterministic(tmp_path, capsys):
    sg = tmp_path / "sg.json"
    run(capsys, "build", "--family", "semilattice", "--n", "3",
        "--out", str(sg))
    _, first, _ = run(capsys, "graph", "--input", str(sg), "--format", "dot")
    _, second, _ = run(capsys, "graph", "--input", str(sg), "--format", "dot")
    assert first == second


def test_dot_and_json_describe_same_edges(tmp_path, capsys):
    sg = tmp_path / "sg.json"
    run(capsys, "build", "--family", "cyclic", "--n", "3", "--out", str(sg))
    _, dot, _ = run(capsys, "graph", "--input", str(sg), "--format", "dot")
    _, js, _ = run(capsys, "graph", "--input", str(sg), "--format", "json")
    assert dot.count("--") == len(json.loads(js)["edges"])


def test_graph_names_the_first_witness_of_an_order_128_break(tmp_path,
                                                             capsys):
    s = light_test_bases()[-1]
    table = [list(row) for row in s.table]
    table[7][3] = (table[7][3] + 2) % 128
    sg = tmp_path / "sg.json"
    sg.write_text(json.dumps({"order": 128, "table": table}))
    code, out, err = run(capsys, "graph", "--input", str(sg))
    x, y, z = first_failing_triple(table)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: associativity fails at ({x}*{y})*{z} != " \
                  f"{x}*({y}*{z})\n"


def test_stats(tmp_path, capsys):
    sg = tmp_path / "sg.json"
    run(capsys, "build", "--family", "cyclic", "--n", "3", "--out", str(sg))
    gpath = tmp_path / "g.json"
    run(capsys, "graph", "--input", str(sg), "--out", str(gpath))
    code, out, _ = run(capsys, "stats", "--graph", str(gpath))
    assert code == 0
    doc = json.loads(out)
    assert doc["is_complete"] and doc["edge_count"] == 3


def test_classes(tmp_path, capsys):
    sg = tmp_path / "sg.json"
    run(capsys, "build", "--family", "isn", "--n", "2", "--out", str(sg))
    code, out, _ = run(capsys, "classes", "--input", str(sg),
                       "--side", "left")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_skeletal_ops(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({
        "order": 4, "labels": None,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    }))
    code, out, _ = run(capsys, "skeletal", "--graph", str(gpath),
                       "--op", "is-skeleton")
    assert code == 0 and "proper skeletal" in out
    code, out, _ = run(capsys, "skeletal", "--graph", str(gpath),
                       "--op", "max")
    assert code == 0 and json.loads(out)["graph"]["order"] == 1
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"map": [0, 0, 0, 1]}))
    code, out, _ = run(capsys, "skeletal", "--graph", str(gpath),
                       "--op", "check", "--map", str(mpath))
    assert code == 0 and json.loads(out)["is_skeletal"]
    code, out, _ = run(capsys, "skeletal", "--graph", str(gpath),
                       "--op", "brute")
    assert code == 0 and "proper skeletal found" in out


def test_skeletal_brute_force_above_order_8_is_a_clean_error(tmp_path,
                                                            capsys):
    gpath = tmp_path / "path9.json"
    gpath.write_text(json.dumps({"order": 9, "labels": None,
                                 "edges": [[v, v + 1] for v in range(8)]}))
    code, out, err = run(capsys, "skeletal", "--graph", str(gpath),
                         "--op", "brute")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "error: partition search guarded at order 8\n"


def test_skeletal_check_without_a_map_is_a_usage_error(tmp_path, capsys):
    # the graph path does not exist: the error comes before any file read
    with pytest.raises(SystemExit) as exc:
        main(["skeletal", "--graph", str(tmp_path / "missing.json"),
              "--op", "check"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: pig ")
    assert err.endswith("pig: error: --op check requires --map\n")
    assert "Traceback" not in err


def test_skeletal_check_rejects_bad_map(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"order": 3, "labels": None,
                                 "edges": [[0, 1], [1, 2]]}))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"map": [0, 0, 0]}))
    code, out, _ = run(capsys, "skeletal", "--graph", str(gpath),
                       "--op", "check", "--map", str(mpath))
    assert code == 1 and not json.loads(out)["is_skeletal"]


def test_skeletal_check_rejects_a_huge_map_id_quickly(tmp_path, capsys):
    # the codomain order is the largest id plus one; surjectivity is
    # checked without building the codomain
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"order": 2, "labels": None,
                                 "edges": [[0, 1]]}))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"map": [0, 10**12]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "skeletal", "--graph", str(gpath),
                       "--op", "check", "--map", str(mpath))
    assert code == 2 and err.startswith("error: ")
    assert time.perf_counter() - start < 1


def test_spectral_ops(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({
        "order": 4, "labels": None,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    }))
    code, out, _ = run(capsys, "spectral", "--graph", str(gpath),
                       "--matrix", "A", "--lambda", "-1")
    assert code == 0 and json.loads(out)["multiplicity"] == 3
    code, out, _ = run(capsys, "spectral", "--graph", str(gpath),
                       "--twin-report")
    assert code == 0 and json.loads(out)["all_pass"]


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--suite", "green")
    assert code == 0 and "all checks passed" in out
    code, out, _ = run(capsys, "verify", "--suite", "brandt",
                       "--group-order", "2", "--indices", "3")
    assert code == 0
    # the parser offers only SUITES; run_suite itself refuses any other
    with pytest.raises(ValueError, match="^unknown suite 'none'$"):
        verify.run_suite("none")
    # one failed check in the last of two suites fails the whole run
    results = (SuiteResult("a", (CheckResult("x", True),)),
               SuiteResult("b", (CheckResult("y", False, "why"),
                                 CheckResult("z", True))))
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: results)
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 1 and out == ("[PASS] a: x\n[FAIL] b: y  (why)\n"
                                 "[PASS] b: z\nsome checks FAILED\n")


def test_parse_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--graph",
                       str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, _ = run(capsys, "stats", "--graph", str(bad))
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_directory_paths_exit_2(tmp_path, capsys):
    sg, graph, folder = (tmp_path / "sg.json", tmp_path / "g.json",
                         str(tmp_path))
    run(capsys, "build", "--family", "isn", "--n", "2", "--out", str(sg))
    run(capsys, "graph", "--input", str(sg), "--out", str(graph))
    for argv in (["build", "--family", "isn", "--out", folder],
                 ["graph", "--input", folder],
                 ["graph", "--input", str(sg), "--out", folder],
                 ["classes", "--input", folder],
                 ["stats", "--graph", folder],
                 ["skeletal", "--graph", folder, "--op", "max"],
                 ["skeletal", "--graph", str(graph), "--op", "check",
                  "--map", folder],
                 ["spectral", "--graph", folder]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: "), argv
        assert folder in err, argv


def test_a_key_error_from_a_command_is_not_caught(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(GRAPH))

    def defect(g):
        raise KeyError("defect")

    monkeypatch.setattr("pigraphs.graphs.graph_stats", defect)
    with pytest.raises(KeyError):
        main(["stats", "--graph", str(graph)])


def test_a_value_error_from_a_command_is_not_caught(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(GRAPH))

    def defect(g):
        raise ValueError("defect")

    monkeypatch.setattr("pigraphs.graphs.graph_stats", defect)
    with pytest.raises(ValueError):
        main(["stats", "--graph", str(graph)])


def test_undecodable_documents_exit_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GRAPH))
    contents = {"deep.json": b"[" * 100_000 + b"]" * 100_000,
                "text.json": b"not json",
                "non_utf8.json": b'{"order": 0, "labels": ["caf\xe9"]}'}
    for name, data in contents.items():
        path = tmp_path / name
        path.write_bytes(data)
        for argv in (["stats", "--graph", path],
                     ["graph", "--input", path],
                     ["classes", "--input", path],
                     ["skeletal", "--graph", path, "--op", "max"],
                     ["skeletal", "--graph", good, "--op", "check",
                      "--map", path],
                     ["spectral", "--graph", path]):
            code, out, err = run(capsys, *map(str, argv))
            assert code == 2 and out == "", (name, argv)
            assert err.startswith("error: ") and "Traceback" not in err
            assert str(path) in err, (name, argv)


def test_non_ascii_labels_under_an_ascii_locale(tmp_path):
    """Documents are read and --out files written as UTF-8 whatever the
    locale; a label standard output cannot encode is an error with exit 2,
    not a traceback with exit 1.  The label is escaped in one document and
    raw in the other."""
    table = {"table": [[0, 0], [0, 1]], "labels": ["z", "\u4e2d"]}
    for name, ascii_only in (("escaped.json", True), ("raw.json", False)):
        (tmp_path / name).write_text(
            json.dumps(table, ensure_ascii=ascii_only), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           "LC_ALL": "C", "PYTHONIOENCODING": "ascii"}
    env.pop("PYTHONUTF8", None)

    def pig(*argv):
        return subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "pigraphs.cli", *argv],
            env=env, capture_output=True, text=True, encoding="utf-8",
            cwd=tmp_path, timeout=60)

    for name in ("escaped.json", "raw.json"):
        run = pig("graph", "--input", name, "--format", "dot",
                  "--out", "o.dot")
        assert (run.returncode, run.stdout, run.stderr) == (0, "", ""), name
        dot = (tmp_path / "o.dot").read_text(encoding="utf-8")
        assert dot == 'graph {\n  "\u4e2d";\n}\n', name
        for argv in (["graph", "--input", name, "--format", "dot"],
                     ["classes", "--input", name]):
            run = pig(*argv)
            assert (run.returncode, run.stdout) == (2, ""), argv
            assert run.stderr.startswith("error: ") \
                and "Traceback" not in run.stderr, argv


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(GRAPH))
    valid = ["spectral", "--graph", str(graph), "--matrix", "L",
             "--lambda", "1"]
    alone = run(capsys, *valid)
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--graph", str(graph), "--matrix", "X"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *valid) == alone
    assert alone[0] == 0 and json.loads(alone[1])["multiplicity"] == 1


def test_malformed_documents_exit_2(tmp_path, capsys):
    sg = tmp_path / "sg.json"
    run(capsys, "build", "--family", "isn", "--n", "2", "--out", str(sg))
    doc = json.loads(sg.read_text())
    semigroup_docs = {
        "not_object": doc["table"],
        "short_labels": {**doc, "labels": doc["labels"][:3]},
        "long_labels": {**doc, "labels": doc["labels"] + ["x"]},
    }
    for name, bad in semigroup_docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        for argv in (["graph", "--input", str(path)],
                     ["graph", "--input", str(path), "--variant", "spig"],
                     ["classes", "--input", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (name, argv)
            assert err.startswith("error: ") and "Traceback" not in err
    graph_docs = {
        "not_object": [[0, 1]],
        "endpoint_too_large": {"order": 2, "labels": None,
                               "edges": [[0, 2]]},
        "negative_endpoint": {"order": 2, "labels": None,
                              "edges": [[-1, 0]]},
    }
    for name, bad in graph_docs.items():
        path = tmp_path / f"graph-{name}.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "stats", "--graph", str(path))
        assert code == 2 and err.startswith("error: "), name


GRAPH = {"order": 3, "labels": None, "edges": [[0, 1], [1, 2]]}
SEMIGROUP = to_json_dict(families.symmetric_inverse(2))
BAD_INPUT = {
    "graph order is a string": ("graph", {**GRAPH, "order": "2"}),
    "graph order is a bool": ("graph", {**GRAPH, "order": True,
                                         "edges": []}),
    "endpoint is a string": ("graph", {**GRAPH, "edges": [["a", 0]]}),
    "endpoints are bools": ("graph", {**GRAPH, "edges": [[True, False]]}),
    "edges is not a list": ("graph", {**GRAPH, "edges": 5}),
    "edge is not a pair": ("graph", {**GRAPH, "edges": [5]}),
    "graph labels are not a list": ("graph", {**GRAPH, "labels": 5}),
    "graph labels are too few": ("graph", {**GRAPH, "labels": ["a"]}),
    "graph labels repeat": ("graph", {**GRAPH, "labels": ["a", "b", "a"]}),
    "semigroup labels are not a list": ("semigroup",
                                        {**SEMIGROUP, "labels": 5}),
    "semigroup labels repeat": ("semigroup", {"table": [[0, 0], [1, 1]],
                                              "labels": ["a", "a"]}),
    "semigroup label is not a string": (
        "semigroup", {**SEMIGROUP, "labels": [3] + SEMIGROUP["labels"][1:]}),
    "table entries are bools": (
        "semigroup", {**SEMIGROUP, "table": [[v if v > 1 else bool(v)
                                              for v in row]
                                             for row in SEMIGROUP["table"]]}),
    "map entry is a string": ("map", {"map": ["a", 0, 0]}),
    "map entries are bools": ("map", {"map": [True, False, False]}),
    "map is not a list": ("map", {"map": 5}),
    "map document is not an object": ("map", [0, 0, 1]),
    "map is empty": ("map", {"map": []}),
    "map is too short": ("map", {"map": [0, 0]}),
    "semigroup family is a number": ("semigroup", {**SEMIGROUP, "family": 5}),
    "semigroup has no table": ("semigroup", {k: v for k, v in SEMIGROUP.items()
                                             if k != "table"}),
    "semigroup order differs from the table": ("semigroup",
                                               {**SEMIGROUP, "order": 5}),
    "semigroup order is a string": ("semigroup", {**SEMIGROUP, "order": "7"}),
    "semigroup order is a bool": ("semigroup", {**SEMIGROUP, "table": [[0]],
                                                "labels": ["e"],
                                                "order": True}),
    "semigroup order is a float": ("semigroup", {**SEMIGROUP, "order": 7.0}),
    "graph has no order": ("graph", {"labels": None, "edges": []}),
    "graph has no edges": ("graph", {"order": 3, "labels": None}),
    "edge is a loop": ("graph", {"order": 2, "edges": [[0, 0], [0, 1]]}),
    "graph order is huge": ("graph", {"order": 10**12, "edges": []}),
    "graph order overflows an index": ("graph", {"order": 10**19,
                                                 "edges": []}),
    # element 0 of this table is its zero, element 1 its identity
    "semigroup zero and identity are swapped": (
        "semigroup", {"table": [[0, 0], [0, 1]], "zero": 1, "identity": 0}),
    "semigroup identity is a bool": (
        "semigroup", {"table": [[0, 0], [0, 1]], "zero": 0,
                      "identity": True}),
    "semigroup identity is a string": (
        "semigroup", {"table": [[0, 0], [0, 1]], "zero": 0,
                      "identity": "x"}),
}
# the exact error line of the cases that must name a field
FIELD_ERRORS = {
    "semigroup has no table": "semigroup document has no 'table' field",
    "semigroup order differs from the table":
        "'order' is 5 but the table has 7 rows",
    "semigroup order is a string": "'order' must be an integer",
    "semigroup order is a bool": "'order' must be an integer",
    "semigroup order is a float": "'order' must be an integer",
    "graph has no order": "graph document has no 'order' field",
    "graph has no edges": "graph document has no 'edges' field",
    "graph order is huge": "graph order 1000000000000 above 4096",
    "graph order overflows an index":
        "graph order 10000000000000000000 above 4096",
    "graph labels repeat": "label 'a' repeats",
    "semigroup labels repeat": "label 'a' repeats",
    "semigroup zero and identity are swapped":
        "'zero' is 1 but the table's zero is 0",
    "semigroup identity is a bool":
        "'identity' is True but the table's identity is 1",
    "semigroup identity is a string":
        "'identity' is 'x' but the table's identity is 1",
}


@pytest.mark.parametrize("name", list(BAD_INPUT))
def test_malformed_input_exits_2_without_traceback(name, tmp_path, capsys):
    kind, doc = BAD_INPUT[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GRAPH))
    commands = {
        "graph": [["stats", "--graph", str(path)],
                  ["skeletal", "--graph", str(path), "--op", "max"],
                  ["spectral", "--graph", str(path), "--twin-report"],
                  ["spectral", "--graph", str(path), "--matrix", "A"]],
        "semigroup": [["graph", "--input", str(path)],
                      ["graph", "--input", str(path), "--variant", "spig"],
                      ["classes", "--input", str(path)]],
        "map": [["skeletal", "--graph", str(good), "--op", "check",
                 "--map", str(path)]],
    }[kind]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err
        if name in FIELD_ERRORS:
            assert err == f"error: {FIELD_ERRORS[name]}\n", argv


def test_semigroup_order_field_is_optional(tmp_path, capsys):
    path = tmp_path / "sg.json"
    for doc in (SEMIGROUP, {k: v for k, v in SEMIGROUP.items()
                            if k != "order"}):
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classes", "--input", str(path))
        assert code == 0 and len(out.splitlines()) == 4


def test_every_built_semigroup_reads_back(tmp_path, capsys):
    path = tmp_path / "sg.json"
    for family in ("isn", "brandt", "semilattice", "cyclic", "leftzero"):
        for extra in ([], ["--adjoin-zero"]):
            code, _, _ = run(capsys, "build", "--family", family,
                             "--out", str(path), *extra)
            doc = json.loads(path.read_text())
            assert code == 0 and "zero" in doc and "identity" in doc
            for argv in (["graph", "--input", str(path)],
                         ["classes", "--input", str(path)]):
                assert run(capsys, *argv)[0] == 0, (family, extra, argv)


def test_wrong_length_map_names_both_lengths(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(GRAPH))
    for raw in ([], [0, 1], [0, 1, 1, 0]):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"map": raw}))
        code, out, err = run(capsys, "skeletal", "--graph", str(graph),
                             "--op", "check", "--map", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: map has {len(raw)} entries for a graph "
                       "of order 3\n")


FIELDS = ("order", "table", "labels", "edges", "map", "family", "zero")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@st.composite
def mutated_documents(draw):
    """A valid graph, semigroup or map document with one field spoiled."""
    doc = dict(draw(st.sampled_from([GRAPH, SEMIGROUP, {"map": [0, 0, 1]}])))
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    elif isinstance(doc[key], list) and doc[key] and draw(st.booleans()):
        items = list(doc[key])
        items[draw(st.integers(0, len(items) - 1))] = draw(JSON_VALUES)
        doc[key] = items
    else:
        doc[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES | mutated_documents())
def test_any_document_ends_in_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, good_graph, good_map = (Path(tmp) / name for name in
                                      ("doc.json", "g.json", "m.json"))
        path.write_text(json.dumps(doc))
        good_graph.write_text(json.dumps(GRAPH))
        good_map.write_text(json.dumps({"map": [0, 0, 1]}))
        check = ["skeletal", "--op", "check"]
        spectral = ["spectral", "--graph", path]
        for argv in (["stats", "--graph", path],
                     spectral,
                     [*spectral, "--matrix", "L", "--lambda", "1"],
                     [*spectral, "--twin-report"],
                     ["graph", "--input", path],
                     ["classes", "--input", path],
                     [*check, "--graph", path, "--map", good_map],
                     [*check, "--graph", good_graph, "--map", path]):
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                code = main([str(a) for a in argv])
            assert code in ((0, 1, 2) if argv[0] == "skeletal" else (0, 2))

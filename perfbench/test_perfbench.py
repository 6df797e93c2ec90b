"""Tests of the benchmark's own inputs, checks and calibration.

Run with: python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from pigraphs import cli, graphs, skeletal, spectral  # noqa: E402

MODULES = {"cli": cli, "graphs": graphs, "skeletal": skeletal,
           "spectral": spectral}


def _shape(corpus):
    return [(e["name"], e["kind"], len(e["perm"])) for e in corpus]


def test_same_seed_gives_same_inputs():
    assert workloads.tables_corpus(7) == workloads.tables_corpus(7)
    assert workloads.twins_items(7) == workloads.twins_items(7)


def test_seeds_change_relabelling_but_not_sizes():
    a, b = workloads.tables_corpus(1), workloads.tables_corpus(2)
    assert _shape(a) == _shape(b)
    assert all(x["perm"] != y["perm"] for x, y in zip(a, b))
    orders = [len(e["perm"]) for e in a]
    assert min(orders) >= 30 and max(orders) <= 128

    def sizes(items):
        return [(it["kind"], it["order"], it.get("skeleton"),
                 sorted(map(len, it.get("blocks", [])))) for it in items]

    s, t = workloads.twins_items(1), workloads.twins_items(2)
    assert sizes(s) == sizes(t)
    assert all(x["edges"] != y["edges"] for x, y in zip(s, t))


def _run_pass(workload, items, expected):
    run = worker.RUNNERS[workload]
    result = {"items": []}
    for item in items:
        ops, seconds = run(MODULES, item)
        result["items"].append({"seconds": seconds, "ops": ops})
    return workloads.check_pass(workload, 0, 0, expected, result)


def test_tables_checks_catch_a_planted_wrong_output(tmp_path):
    items, expected = workloads.make_inputs("tables", 0, tmp_path)
    keep = [i for i, e in enumerate(expected)
            if e["base"] == "is3"]          # one well-formed, two malformed
    items = [items[i] for i in keep]
    expected = [expected[i] for i in keep]
    attempted, failures = _run_pass("tables", items, expected)
    assert attempted == 15
    # only the not-an-object document crashes today; it is malformed input
    assert {(f["input"], f["kind"]) for f in failures} <= {
        ("malformed", "traceback")}
    baseline = len(failures)

    graph = expected[0]["reference"]["left", "pig"]
    graph["edges"] = graph["edges"][1:]
    attempted, failures = _run_pass("tables", items, expected)
    planted = [f for f in failures if f["input"] == "well-formed"]
    assert len(failures) == baseline + 1
    assert planted[0]["op"] == "graph left pig"
    assert planted[0]["detail"].startswith("unexpected edge")


def test_twins_checks_catch_a_planted_wrong_output():
    items = workloads.twins_items(0)
    picked = [items[0], next(it for it in items if it["kind"] == "small")]
    attempted, failures = _run_pass("twins", picked, picked)
    assert (attempted, failures) == (6, [])

    picked[1] = dict(picked[1], skeleton=not picked[1]["skeleton"])
    picked[0] = dict(picked[0], blocks=[sorted(sum(picked[0]["blocks"][:2],
                                                   []))]
                     + picked[0]["blocks"][2:])
    attempted, failures = _run_pass("twins", picked, picked)
    assert attempted == 6
    assert {f["item"] for f in failures} == {0, 1}
    assert all(f["kind"] == "output" for f in failures)


def test_items_are_calibrated_by_the_samples_near_them():
    sampler = calibrate.Sampler()
    sampler.samples = [(0.0, 0.002), (1.0, 0.004), (5.0, 0.012)]
    assert sampler.sample_s() == pytest.approx(0.006)
    assert sampler.sample_s(0.9, 1.1) == pytest.approx(0.004)
    assert sampler.sample_s(0.15, 0.85) == pytest.approx(0.003)
    assert sampler.sample_s(2.0, 3.0) is None
    assert calibrate.factor(2 * calibrate.REF_S) == 0.5

    spent = sampler.spent
    assert sampler.burst() > 0
    assert sampler.spent > spent

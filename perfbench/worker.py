"""One process of the benchmark: set up, run one pass of a workload, report.

Usage: python3 perfbench/worker.py SPEC RESULT

SPEC is the JSON written by ``run.py``: the workload, its items, whether
to trace, and whether this is a set-up probe that stops before the first
item.  RESULT receives the monotonic time at which the first item started,
each item's duration, each operation's outcome, the peak RSS and the
machine-speed samples of ``calibrate.Sampler`` with the time spent taking
them (item durations already exclude it).  Everything runs in this one
process on one thread; the samples run in a signal handler on it.
"""

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from calibrate import Sampler

ROOT = Path(__file__).resolve().parent.parent


def _call(fn, *args):
    start = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception:
        value, error = None, traceback.format_exc()
    return value, error, time.perf_counter() - start


def _cli_op(cli, argv):
    """``pig ARGV`` in-process; exit code as the console script gives it."""
    def main():
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code, error, seconds = _call(main)
    return {"exit": 1 if error else code, "traceback": error,
            "stdout": out.getvalue()}, seconds


def _cli_item(modules, item):
    ops, total = [], 0.0
    for argv in item["ops"]:
        op, seconds = _cli_op(modules["cli"], argv)
        ops.append(op)
        total += seconds
    return ops, total


def _twins_item(modules, item):
    graphs, skeletal, spectral = (modules[k] for k in
                                  ("graphs", "skeletal", "spectral"))
    g, error, total = _call(graphs.from_edges, item["order"], item["edges"])
    ops = []

    def step(fn, describe):
        nonlocal total
        if error is not None:
            ops.append({"traceback": error, "out": None})
            return None
        value, err, seconds = _call(fn)
        total += seconds
        ops.append({"traceback": err, "out": None if err else describe(value)})
        return value

    if item["kind"] == "small":
        step(lambda: skeletal.is_skeleton(g), bool)
        step(lambda: skeletal.brute_force_has_proper_skeletal(g), bool)
        return ops, total
    step(lambda: spectral.twin_spectral_report(g), lambda r: {
        "all_pass": r.all_pass,
        "classes": [[list(c.vertices), c.degree] for c in r.classes]})
    quotient = step(lambda: skeletal.max_skeletal(g), lambda r: {
        "order": r[0].order, "edges": [list(e) for e in r[0].edges()],
        "map": list(r[1].map)})
    if quotient is None:
        error = error or "max_skeletal gave no quotient to check"
    step(lambda: skeletal.verify_skeletal(g, *quotient),
         lambda r: r.is_skeletal)
    step(lambda: skeletal.embedded_copy(g, *quotient), lambda r: {
        "order": r[0].order, "edges": [list(e) for e in r[0].edges()],
        "bijection": list(r[1])})
    return ops, total


RUNNERS = {"isn5": _cli_item, "tables": _cli_item, "twins": _twins_item}


def _peak_rss_mb():
    """This process's own peak resident set since exec (VmHWM).

    The rusage that wait4 returns would also count the parent's resident
    set, which the child inherits at fork and keeps as its maximum.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path, result_path):
    sampler = Sampler()
    sampler.start()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pigraphs
    from pigraphs import cli, graphs, skeletal, spectral

    if not Path(pigraphs.__file__).resolve().is_relative_to(src):
        print(f"pigraphs imported from {pigraphs.__file__}, not {src}",
              file=sys.stderr)
        return 3
    with open(spec_path) as fh:
        spec = json.load(fh)
    recorder = None
    if spec["trace"]:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
    modules = {"cli": cli, "graphs": graphs, "skeletal": skeletal,
               "spectral": spectral}
    result = {"first_item_at": time.monotonic(), "items": [],
              "setup_sampling_s": sampler.spent}
    result["setup_sample_s"] = sampler.burst()
    if not spec["probe"]:
        run = RUNNERS[spec["workload"]]
        for item in spec["items"]:
            spent, start = sampler.spent, time.perf_counter()
            ops, seconds = run(modules, item)
            seconds = max(0.0, seconds - (sampler.spent - spent))
            result["items"].append({"seconds": seconds, "ops": ops,
                                    "span": (start, time.perf_counter())})
    sampler.stop()
    result.update(sampling_s=sampler.spent,
                  sample_s=sampler.sample_s() or result["setup_sample_s"],
                  samples_s=[s for _, s in sampler.samples])
    for item in result["items"]:
        item["sample_s"] = sampler.sample_s(*item.pop("span")) or \
            result["sample_s"]
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        recorder.write(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))

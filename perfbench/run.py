"""Benchmark of the pigraphs CLI and API: three seeded workloads.

Usage:
  python3 perfbench/run.py --workload isn5|tables|twins|all --seed N
                           --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
there, never from an installed copy.  Each pass of a workload runs in a
fresh worker process (``worker.py``) on one thread: ``isn5`` is
``pig verify --suite isn --n 5``, ``tables`` sends a seeded corpus of
Cayley-table documents through ``pig graph`` and ``pig classes``, and
``twins`` sends seeded graphs through the skeletal and spectral API.
Passes repeat until ``--seconds`` is spent (at least one), every output is
checked, and the last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Times are given at a reference machine speed that each worker measures
while it runs (``calibrate.py``); the raw times are kept in the report.
A traced run also makes untraced passes, to measure the tracing overhead.
Inputs, outputs, spans and a full report go to ``.perfbench_work/``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src" / "pigraphs"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("isn5", "tables", "twins")
SETUP_PROBES = 7        # set-up-only processes per run, after one warm-up
CHILD_TIMEOUT_S = 150

UNITS = {"wall_s": "s", "item_ms_p50": "ms", "item_ms_tail": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def launch(spec_path, result_path, log_path):
    """Run one worker; returns (wall seconds, launch time, exit code)."""
    with open(log_path, "w") as log:
        started = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             str(result_path)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status = os.waitpid(child.pid, 0)
        except ChildTimeout:
            child.kill()
            _, status = os.waitpid(child.pid, 0)
        finally:
            signal.alarm(0)
        ended = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    return ended - started, started, child.returncode


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    no percentile qualifies and the maximum is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata():
    return {"src_lines": src_lines(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit()}


def run_workload(workload, seed, seconds, trace):
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    items, expected = workloads.make_inputs(workload, seed, work)

    def spec(name, probe=False, traced=False):
        path = work / f"spec-{name}.json"
        path.write_text(json.dumps({
            "workload": workload, "items": items, "probe": probe,
            "trace": traced, "spans": str(work / "spans.json")}))
        return path

    specs = {"probe": spec("probe", probe=True), "plain": spec("plain"),
             "traced": spec("traced", traced=True)}
    report = {"workload": workload, "seed": seed, "trace": trace,
              "meta": metadata(), "failures": [], "attempted": 0,
              "passes": {"plain": [], "traced": []}, "setup_s": []}

    def child(kind, index):
        result_path = work / f"result-{kind}-{index}.json"
        wall, started, code = launch(
            specs[kind], result_path, work / f"log-{kind}-{index}.txt")
        if code != 0 or not result_path.is_file():
            log = (work / f"log-{kind}-{index}.txt").read_text()
            raise RuntimeError(f"worker exited with {code}:\n{log}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        setup = result["first_item_at"] - started - result["setup_sampling_s"]
        setup *= calibrate.factor(result["setup_sample_s"])
        return wall, setup, calibrate.factor(result["sample_s"]), result

    for index in range(SETUP_PROBES + 1):
        _, setup, _, _ = child("probe", index)
        if index:   # the first probe warms the bytecode and file caches
            report["setup_s"].append(setup)

    begun = time.monotonic()
    kinds = ("plain", "traced") if trace else ("plain",)
    rounds = 0
    while True:
        for kind in kinds:
            out = work / "out"
            if out.is_dir():
                shutil.rmtree(out)
                out.mkdir()
            wall, setup, scale, result = child(kind, rounds)
            attempted, failures = workloads.check_pass(
                workload, seed, rounds, expected, result)
            report["attempted"] += attempted
            report["failures"] += failures
            layers = result.get("layers")
            if layers:
                layers = {k: v * scale if layer_unit(k) == "s" else v
                          for k, v in layers.items()}
            report["passes"][kind].append({
                "wall_s": (wall - result["sampling_s"]) * scale,
                "wall_raw_s": wall, "setup_s": setup,
                "sample_s": result["sample_s"],
                "samples_s": result["samples_s"],
                "peak_rss_mb": result["peak_rss_mb"],
                "items_s": [it["seconds"] * calibrate.factor(it["sample_s"])
                            for it in result["items"]],
                "items_raw_s": [it["seconds"] for it in result["items"]],
                "layers": layers})
            if kind == "plain":
                report["setup_s"].append(setup)
        rounds += 1
        spent = time.monotonic() - begun
        if spent + spent / rounds > seconds:
            break
    return report


def summarize(report):
    plain = report["passes"]["plain"]
    items_ms = [s * 1000 for p in plain for s in p["items_s"]]
    tail_ms, tail_pct, samples = tail(items_ms)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "item_ms_p50": statistics.median(items_ms),
        "item_ms_tail": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(report["setup_s"]),
    }
    failures = report["failures"]
    report["summary"] = {
        "metrics": metrics, "item_ms_tail_percentile": tail_pct,
        "item_samples": samples, "failed": len(failures),
        "failed_frac": len(failures) / report["attempted"],
        # a crash on malformed input is the known defect class that
        # failed_frac tracks; anything else is a wrong answer
        "correct": all(f["kind"] == "traceback" and f["input"] == "malformed"
                       for f in failures)}
    traced = report["passes"]["traced"]
    if traced:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead"] = (
            statistics.median(p["wall_s"] for p in traced) / metrics["wall_s"])
        report["summary"]["layers"] = layers
    return report["summary"]


def layer_unit(name):
    if name == "trace.overhead":
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


def print_report(report, summary):
    wl = report["workload"]
    plain = report["passes"]["plain"]
    print(f"{wl}: seed {report['seed']}, {len(plain)} passes, "
          f"{summary['item_samples']} items, trace {report['trace']}")
    for name, value in summary["metrics"].items():
        extra = ""
        if name == "item_ms_tail":
            extra = (f"  (p{summary['item_ms_tail_percentile']:.1f} of "
                     f"{summary['item_samples']} samples)")
        print(f"  {name} {value:.6g} {UNITS[name]}{extra}")
    print(f"  calibration: measured wall_s "
          f"{statistics.median(p['wall_raw_s'] for p in plain):.6g} s, "
          f"reference sample "
          f"{statistics.median(p['sample_s'] for p in plain) * 1000:.4g} ms "
          f"(times above are at {calibrate.REF_S * 1000:g} ms)")
    print(f"  failed_frac {summary['failed_frac']:.6g} ratio  "
          f"({summary['failed']} of {report['attempted']} operations)")
    for name, value in summary.get("layers", {}).items():
        print(f"  {name} {value:.6g} {layer_unit(name)}")
    for f in report["failures"][:5]:
        print(f"  failure: {json.dumps(f)[:300]}")
    print(f"  meta {json.dumps(report['meta'])}")


def result_line(report, summary):
    if report["trace"]:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in summary["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in summary["metrics"].items()}
    return {"correct": summary["correct"], "attempted": report["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        summary = summarize(report)
        (WORK / f"report-{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(report, indent=1))
        print_report(report, summary)
        lines[name] = result_line(report, summary)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{wl}.{k}": v for wl, r in lines.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The end-to-end benchmark: four workloads, user-facing and per-layer metrics.

One command runs a workload in fresh processes, checks its outputs, and
prints every metric by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--out DIR] [--scale X]
                                  [--record]

Without ``--workload`` every workload runs in turn.  An untraced run
sets the workload up five times (four set-up-only processes, then the
measured one) for a median ``setup_s`` and measures the end-to-end
metrics.  ``--trace 1`` instead runs the workload untraced for half of
``--seconds`` and traced for the other half, and reports the per-layer
metrics; their difference is ``trace.overhead_frac``.  Metric names,
units and bounds live in ``BENCHMARK.json`` at the repository root.

Outputs (``results.json``, raw per-process data, spans, logs) go to
``--out``, by default a fresh directory under ``.e2e_out/`` in the
repository root.  ``--record`` appends this run's metrics to
``benchmarks/e2e/history.jsonl`` and, for ``--seed 0`` at scale 1,
extends the reference output digests in ``benchmarks/e2e/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
HISTORY = os.path.join(HERE, "history.jsonl")

sys.path.insert(0, HERE)
import trace as spans  # noqa: E402 — benchmarks/e2e/trace.py
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, scale: float,
              out: str, tag: str, trace_dir: Optional[str] = None,
              setup_only: bool = False) -> dict:
    """Run ``workloads.py`` in a fresh process; returns its raw result."""
    result = os.path.join(out, f"raw-{tag}.json")
    # A private directory per process: bug databases must start fresh.
    work = os.path.join(out, tag)
    os.makedirs(work, exist_ok=True)
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--scale", str(scale),
               "--out", work, "--result", result]
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, TMPDIR=work,
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    log_path = os.path.join(out, f"{tag}.log")
    started = time.monotonic()
    with open(log_path, "w") as log:
        # Own session: a timed-out child is killed with its pool workers.
        child = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT,
                                 env=env, cwd=ROOT, start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise BenchError(f"{workload} ({tag}) timed out") from None
        finally:
            wait_for_group(child.pid)
    if code != 0:
        with open(log_path) as log:
            tail = log.read()[-2000:]
        raise BenchError(f"{workload} ({tag}) exited {code}:\n{tail}")
    with open(result) as handle:
        raw = json.load(handle)
    raw["setup_s"] = raw["ready"] - started
    return raw


def wait_for_group(pgid: int, timeout: float = 30.0) -> None:
    """Wait until every process of a child's group (its pool workers,
    the server, multiprocessing's resource tracker) has ended."""
    for signum, wait in ((0, timeout), (signal.SIGKILL, 5.0)):
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, signum)
            except ProcessLookupError:
                return
            time.sleep(0.02)


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def execs_per_s(raw: dict) -> float:
    return sum(j["execs_ok"] for j in raw["jobs"]) / raw["window_s"]


def end_to_end(raw: dict, setups: List[float]) -> Dict[str, float]:
    latencies = [j["latency_s"] * 1e3 for j in raw["jobs"]]
    return {
        "setup_s": statistics.median(setups),
        "execs_per_s": execs_per_s(raw),
        "job_latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }


def output_problems(workload: str, seed: int, scale: float,
                    raws: List[dict]) -> List[str]:
    """Failed output checks, digest drift against the seed-0 reference,
    and digest disagreement between two runs of the same jobs."""
    problems = []
    for raw in raws:
        problems += [p for j in raw["jobs"] for p in j["problems"]]
        problems += raw["extra_problems"]
    reference = {}
    if seed == 0 and scale == 1.0 and os.path.exists(DIGESTS):
        with open(DIGESTS) as handle:
            reference = dict(enumerate(json.load(handle).get(workload, [])))
    for raw in raws:
        for job in raw["jobs"]:
            for other in [reference] + [
                {j["index"]: j["digest"] for j in r["jobs"]}
                for r in raws if r is not raw
            ]:
                expected = other.get(job["index"])
                if expected is not None and expected != job["digest"]:
                    problems.append(f"job {job['index']}: output digest "
                                    f"{job['digest'][:12]} != {expected[:12]}")
    return sorted(set(problems))


def run_workload(workload: str, seed: int, seconds: float, scale: float,
                 trace: bool, out: str, spec: dict) -> dict:
    os.makedirs(out, exist_ok=True)
    if not trace:
        setups = [run_child(workload, seed, seconds, scale, out, f"setup{i}",
                            setup_only=True)["setup_s"]
                  for i in range(SETUP_RUNS - 1)]
        raw = run_child(workload, seed, seconds, scale, out, "measured")
        raws = [raw]
        values = end_to_end(raw, setups + [raw["setup_s"]])
        wanted = spec["end_to_end"]
        latencies = [j["latency_s"] * 1e3 for j in raw["jobs"]]
        # The p90 is kept out of the metrics: fleet and oracle runs hold
        # about 20 jobs, too few for ten samples beyond it.
        extra = {"setup_runs_s": setups + [raw["setup_s"]],
                 "job_latency_ms": {"n": len(latencies),
                                    "p50": statistics.median(latencies),
                                    "p90": percentile(latencies, 90)}}
    else:
        trace_dir = os.path.join(out, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        plain = run_child(workload, seed, seconds / 2, scale, out, "untraced")
        raw = run_child(workload, seed, seconds / 2, scale, out, "traced",
                        trace_dir=trace_dir)
        raws = [plain, raw]
        recorded = spans.load_spans(trace_dir)
        overhead = execs_per_s(plain) / execs_per_s(raw) - 1.0
        values = spans.layer_metrics(recorded, raw["jobs"], raw["workers"],
                                     raw["window_start_ns"], overhead)
        wanted = spec["per_layer"]
        extra = {"span_problems": spans.check_spans(recorded)[:20],
                 "spans": len(recorded)}
    problems = output_problems(workload, seed, scale, raws)
    attempted = sum(j["attempted"] for j in raw["jobs"])
    failed = sum(j["failed"] for j in raw["jobs"])
    result = {
        "workload": workload, "seed": seed, "scale": scale,
        "seconds": seconds, "trace": int(trace),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "jobs": len(raw["jobs"]),
        "job_digests": {str(j["index"]): j["digest"] for j in raw["jobs"]},
        "fp_apps": [a for j in raw["jobs"] for a in j.get("fp_apps", [])],
        "problems": problems,
        "hooks_missing": raw["hooks_missing"],
        **extra,
    }
    with open(os.path.join(out, "results.json"), "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    return result


def box() -> str:
    cpus = os.cpu_count()
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"{cpus} vCPU {platform.machine()}, {mem_gb:.0f} GB, "
            f"Python {platform.python_version()}")


def record(result: dict) -> None:
    """Append history rows; extend the seed-0 reference digests."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    with open(HISTORY, "a") as handle:
        for name, metric in sorted(result["metrics"].items()):
            layer, _, short = name.rpartition(".")
            handle.write(json.dumps({
                "bench": "e2e", "workload": result["workload"],
                "layer": layer or "end_to_end", "metric": short,
                "value": metric["value"], "unit": metric["unit"],
                "box": box(), "commit": commit,
            }, sort_keys=True) + "\n")
    if result["seed"] != 0 or result["scale"] != 1.0 or not result["correct"]:
        return
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as handle:
            digests = json.load(handle)
    known = digests.get(result["workload"], [])
    ran = result["job_digests"]
    while str(len(known)) in ran:
        known.append(ran[str(len(known))])
    digests[result["workload"]] = known
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="job size multiplier (the smoke test uses 0.05)")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.out:
        base = os.path.abspath(args.out)
    else:
        scratch = os.path.join(ROOT, ".e2e_out")
        os.makedirs(scratch, exist_ok=True)
        base = tempfile.mkdtemp(prefix=f"s{args.seed}-t{args.trace}-",
                                dir=scratch)
    results = []
    for workload in workloads:
        out = base if len(workloads) == 1 else os.path.join(base, workload)
        try:
            result = run_workload(workload, args.seed, seconds, args.scale,
                                  bool(args.trace), out, spec)
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        print(f"{workload} attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']} "
              f"results {os.path.join(out, 'results.json')}")
        for problem in result["problems"]:
            print(f"{workload} PROBLEM {problem}")
        if args.record:
            record(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

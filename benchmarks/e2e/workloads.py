"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` starts this script once per measurement so that set-up time
and peak RSS belong to one clean process.  The script sets the workload
up (imports, app caches, a warm-up job; for the service, the server
process and a warm-up job), notes the moment it is ready, then runs
jobs back to back for ``--seconds`` and writes what it saw to
``--result`` as JSON.  It prints nothing on success.

A *job* is the unit a user submits and waits for: one ``run_fleet``
campaign, one ``run_oracle`` batch, or one service job.  Job ``k``'s
inputs are a pure function of ``(--seed, k, --scale)``, so two runs with
the same seed run the same jobs in the same order and their output
digests can be compared job by job.

Usage (normally invoked by ``run.py``)::

    PYTHONPATH=src python benchmarks/e2e/workloads.py --workload fleet-short \
        --seed 0 --seconds 25 --out DIR --result DIR/raw.json [--trace-dir D]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

# Fleet campaigns and service jobs lease both cores of the reference box.
WORKERS = 2
# Seed bases: job k of --seed S uses SEED_STRIDE * S + JOB_STRIDE * k as
# its campaign seed base (oracle jobs: ORACLE_SEED_BASE + SEED_STRIDE * S
# + k as the run_oracle seed); the warm-up job uses a base no job reaches.
SEED_STRIDE = 1_000_000
JOB_STRIDE = 1_000
WARMUP_SEED = 999_999_000
# run_oracle seeds start at 12 so --seed 0 covers the recorded seeds 12, 13.
ORACLE_SEED_BASE = 12
ORACLE_BUDGET = 12
SERVICE_EXECUTIONS = 8

# (app, executions per campaign); campaigns cycle through the list.
FLEET_APPS = {
    # 1-5 allocations per execution: runtime set-up and dispatch dominate.
    "fleet-short": [("gzip", 160), ("libtiff", 160), ("polymorph", 160),
                    ("libhx", 160)],
    # 1.3k-2.9k allocations per execution: the interposed hot path
    # dominates.  Sizes give the two apps similar campaign latencies.
    "fleet-heavy": [("mysql", 24), ("heartbleed", 40)],
}
WORKLOADS = ("fleet-short", "fleet-heavy", "oracle-7arm", "service-mixed")


def digest(document) -> str:
    """sha256 of a document's sorted-key JSON form."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def known_bug_problems(app: str, aggregate: dict) -> List[str]:
    """Reports that are not the application's one injected bug."""
    from repro.workloads.buggy import spec_for

    spec = spec_for(app)
    problems = []
    for report in aggregate["reports"]:
        site = report["allocation_context"][0]
        if report["kind"] != spec.bug_kind or not site.startswith(
            spec.vuln_module + "/"
        ):
            problems.append(f"{app}: unexpected report {report['signature']}")
    return problems


class _Tracer:
    """The traced run's recorder, or a no-op when tracing is off."""

    def __init__(self, trace_dir: Optional[str]):
        self.trace_dir = trace_dir
        self.rec = None
        self.missing: List[str] = []
        if trace_dir:
            import trace as spans  # benchmarks/e2e/trace.py

            self.rec = spans.Recorder(trace_dir)
            self.missing = spans.install(self.rec)

    @contextlib.contextmanager
    def job(self, name: str, trace: str):
        """A ``job.*`` span around one measured job (yields its frame)."""
        if self.rec is None:
            yield None
            return
        frame = self.rec.open(name, trace)
        try:
            yield frame
        finally:
            self.rec.close(frame)

    def flush(self) -> None:
        if self.rec is not None:
            self.rec.flush()


class _SerialWorkload:
    """One client running jobs back to back in this process."""

    def run(self, deadline: float) -> List[dict]:
        jobs: List[dict] = []
        while not jobs or time.monotonic() < deadline:
            jobs.append(self.job(len(jobs)))
        return jobs

    def extra_problems(self, jobs: List[dict]) -> List[str]:
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Fleet campaigns
# ----------------------------------------------------------------------
class FleetWorkload(_SerialWorkload):
    def __init__(self, apps, seed: int, scale: float, out: str,
                 tracer: _Tracer):
        self.apps = [(app, scaled(n, scale, WORKERS)) for app, n in apps]
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        from repro.fleet import run_fleet
        from repro.workloads.buggy import app_for

        for app, _ in self.apps:
            app_for(app)
        run_fleet(self.apps[0][0], executions=WORKERS, workers=WORKERS,
                  seed_base=WARMUP_SEED)

    def job(self, k: int) -> dict:
        from repro.fleet import run_fleet

        app, executions = self.apps[k % len(self.apps)]
        base = SEED_STRIDE * self.seed + JOB_STRIDE * k
        started = time.monotonic()
        with self.tracer.job("job.fleet", f"{app}:{base}"):
            result = run_fleet(app, executions=executions, workers=WORKERS,
                               seed_base=base)
        latency = time.monotonic() - started
        aggregate = result.aggregator.to_dict()
        ok = sum(1 for r in result.results if r.ok)
        problems = known_bug_problems(app, aggregate)
        if len(result.results) != executions:
            problems.append(f"{app}: {len(result.results)} results for "
                            f"{executions} executions")
        return {"index": k, "latency_s": latency, "execs_ok": ok,
                "attempted": executions, "failed": executions - ok,
                "digest": digest(aggregate), "problems": problems}


# ----------------------------------------------------------------------
# The 7-arm oracle pipeline
# ----------------------------------------------------------------------
class OracleWorkload(_SerialWorkload):
    def __init__(self, seed: int, scale: float, out: str, tracer: _Tracer):
        self.budget = scaled(ORACLE_BUDGET, scale, 1)
        self.seed = seed
        self.out = out
        self.tracer = tracer

    def _run(self, oracle_seed: int, budget: int, db_path: str):
        from repro.oracle.runner import OracleSettings, run_oracle
        from repro.triage import BugDatabase

        settings = OracleSettings(budget=budget, seed=oracle_seed,
                                  executions_per_app=2, workers=WORKERS)
        db = BugDatabase(db_path)
        return run_oracle(settings, bug_db=db), db

    def setup(self) -> None:
        self._run(WARMUP_SEED, 2, os.path.join(self.out, "bugdb-warmup.json"))

    def job(self, k: int) -> dict:
        from repro.detectors import get as get_detector
        from repro.oracle.grammar import CSOD_ARMS

        oracle_seed = ORACLE_SEED_BASE + SEED_STRIDE * self.seed + k
        started = time.monotonic()
        with self.tracer.job("job.oracle", f"oracle:s{oracle_seed}"):
            run, db = self._run(oracle_seed, self.budget,
                                os.path.join(self.out, f"bugdb-{k}.json"))
        latency = time.monotonic() - started
        card = run.scorecard
        problems = []
        for arm, row in card["arms"].items():
            expected = self.budget * (2 if get_detector(arm).fleet else 1)
            if row["executions"] != expected:
                problems.append(f"oracle:s{oracle_seed}: arm {arm} judged "
                                f"{row['executions']}/{expected} executions")
        if card["programs"]["total"] != self.budget:
            problems.append(f"oracle:s{oracle_seed}: "
                            f"{card['programs']['total']} programs judged")
        items = card["mismatches"]["items"]
        # A false positive is the oracle doing its job (it is reported,
        # counted and recorded as a finding); a mismatch the capability
        # matrix cannot explain any other way is a failed judgement.
        fp = [m["app"] for m in items if m["fp_arms"]]
        failed = [m["app"] for m in items
                  if not m["explained"] and not m["fp_arms"]]
        fleet_execs = sum(card["arms"][arm]["executions"]
                          for arm in CSOD_ARMS if arm in card["arms"])
        return {"index": k, "latency_s": latency, "execs_ok": fleet_execs,
                "attempted": self.budget, "failed": len(failed),
                "fp_programs": len(fp), "fp_apps": fp,
                "digest": digest({"scorecard": card, "bugdb": db.to_dict()}),
                "problems": problems}


# ----------------------------------------------------------------------
# The HTTP service
# ----------------------------------------------------------------------
class ServiceWorkload:
    """``repro serve`` in its own process, driven by two closed-loop clients.

    Each client thread holds at most one connection: submit, then follow
    the job's SSE channel to a final state, then fetch the result.
    """

    CLIENTS = 2

    def __init__(self, seed: int, scale: float, out: str, tracer: _Tracer):
        self.seed = seed
        self.executions = scaled(SERVICE_EXECUTIONS, scale, WORKERS)
        self.out = out
        self.tracer = tracer
        self.server: Optional[subprocess.Popen] = None
        self.client = None
        self._lock = threading.Lock()
        self._next = 0

    def submission(self, k: int):
        from repro.oracle.grammar import ALL_DEFECTS
        from repro.service.queue import CampaignSubmission

        base = SEED_STRIDE * self.seed + JOB_STRIDE * k
        if k % 2 == 0:
            # Shared evidence: the store is written every wave, read next.
            return CampaignSubmission(
                app="memcached", executions=self.executions,
                workers=WORKERS, share_evidence=True, seed=base)
        i = k // 2
        defect = ALL_DEFECTS[i % len(ALL_DEFECTS)]
        genome = f"oracle:s{ORACLE_SEED_BASE + self.seed}:i{i}:{defect}"
        return CampaignSubmission(app=genome, executions=self.executions,
                                  workers=WORKERS, seed=base)

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        command = [sys.executable, "-u", os.path.join(HERE, "serve.py")]
        if self.tracer.trace_dir:
            command += ["--trace-dir", self.tracer.trace_dir]
        command += ["--", "--port", "0", "--workers", str(WORKERS),
                    "--db", os.path.join(self.out, "service-bugs.json"),
                    "--out", os.path.join(self.out, "service")]
        with open(os.path.join(self.out, "server.log"), "w") as log:
            self.server = subprocess.Popen(command, stdout=subprocess.PIPE,
                                           stderr=log, text=True)
        port = None
        for line in self.server.stdout:
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise RuntimeError("service did not start; see server.log")
        # Keep draining the server's stdout so it can never block on it.
        threading.Thread(target=self.server.stdout.read, daemon=True).start()
        self.client = ServiceClient(port=port, timeout=60.0)
        self.client.health()
        self._follow(dataclasses.replace(self.submission(0), seed=WARMUP_SEED))

    def _follow(self, submission) -> dict:
        """Submit one job and follow its channel to a final state."""
        from repro.service.queue import FINAL_STATES

        started = time.monotonic()
        job_id = self.client.submit(submission)["job_id"]
        submitted = time.monotonic()
        timing = {"job_id": job_id, "submit_s": submitted - started}
        events = self.client.stream_events(channel=job_id, timeout=60.0)
        try:
            for event in events:
                if event.get("event") != "job":
                    continue
                now = time.monotonic()
                if event["state"] == "running" and "queue_wait_s" not in timing:
                    timing["queue_wait_s"] = now - started
                if event["state"] in FINAL_STATES:
                    timing["latency_s"] = now - started
                    timing["event_lag_s"] = max(0.0, time.time() - event["ts"])
                    timing["state"] = event["state"]
                    if event.get("error"):
                        timing["error"] = event["error"]
                    break
        finally:
            events.close()
        if "state" not in timing:
            raise RuntimeError(f"job {job_id}: event stream ended early")
        return timing

    def job(self, k: int) -> dict:
        submission = self.submission(k)
        with self.tracer.job("job.service", "") as frame:
            timing = self._follow(submission)
            if frame is not None:
                frame.trace = timing["job_id"]
        problems: List[str] = []
        result = {"index": k, "attempted": 1, "execs_ok": 0, "digest": "",
                  "problems": problems, **timing}
        if timing["state"] != "completed":
            result["failed"] = 1
            return result
        payload = self.client.result(timing["job_id"])
        card = payload["scorecard"]
        result["execs_ok"] = card["executions_ok"]
        result["failed"] = int(card["executions_ok"] != submission.executions)
        if submission.app == "memcached":
            problems += known_bug_problems("memcached", payload["aggregate"])
        result["digest"] = digest(self.deterministic_part(payload))
        result["aggregate_digest"] = digest(payload["aggregate"])
        return result

    @staticmethod
    def deterministic_part(payload: dict) -> dict:
        # Triage status (new vs reproduced) depends on which of the two
        # clients' jobs reached the shared bug database first.
        card = {k: v for k, v in payload["scorecard"].items() if k != "triage"}
        return {"aggregate": payload["aggregate"], "scorecard": card}

    def run(self, deadline: float) -> List[dict]:
        jobs: List[dict] = []
        errors: List[BaseException] = []

        def client_loop():
            try:
                while time.monotonic() < deadline:
                    with self._lock:
                        k = self._next
                        self._next += 1
                    outcome = self.job(k)
                    with self._lock:
                        jobs.append(outcome)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=client_loop)
                   for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return sorted(jobs, key=lambda j: j["index"])

    def extra_problems(self, jobs: List[dict]) -> List[str]:
        """A job's aggregate must equal the same campaign run standalone."""
        from repro.fleet import run_fleet

        problems = []
        checked = set()
        for job in jobs:
            submission = self.submission(job["index"])
            kind = submission.share_evidence
            if kind in checked or not job["digest"]:
                continue
            checked.add(kind)
            standalone = run_fleet(
                submission.app, executions=submission.executions,
                workers=submission.workers,
                share_evidence=submission.share_evidence,
                seed_base=submission.seed,
                wave_size=submission.effective_wave_size())
            if digest(standalone.aggregator.to_dict()) != job["aggregate_digest"]:
                problems.append(f"job {job['index']} ({submission.app}): "
                                f"aggregate differs from a standalone run")
        return problems

    def close(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server = None


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def build(name: str, seed: int, scale: float, out: str, tracer: _Tracer):
    if name in FLEET_APPS:
        return FleetWorkload(FLEET_APPS[name], seed, scale, out, tracer)
    if name == "oracle-7arm":
        return OracleWorkload(seed, scale, out, tracer)
    return ServiceWorkload(seed, scale, out, tracer)


def reap_children() -> None:
    """Wait for every child process (pool workers, the server) to end."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's shm resource tracker.

    The fleet's shared-memory wire starts it as a child process; left
    alone it outlives this process and lingers unreaped for a while.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = _Tracer(args.trace_dir)
    workload = build(args.workload, args.seed, args.scale, args.out, tracer)
    raw: Dict[str, object] = {"workload": args.workload, "seed": args.seed,
                              "scale": args.scale, "workers": WORKERS,
                              "hooks_missing": tracer.missing}
    try:
        workload.setup()
        raw["ready"] = time.monotonic()
        if not args.setup_only:
            raw["window_start_ns"] = time.perf_counter_ns()
            start = time.monotonic()
            jobs = workload.run(start + args.seconds)
            raw["window_s"] = time.monotonic() - start
            raw["jobs"] = jobs
            raw["extra_problems"] = workload.extra_problems(jobs)
    finally:
        workload.close()
        tracer.flush()
        reap_children()
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    raw["peak_rss_kb"] = max(usage)
    with open(args.result, "w") as handle:
        json.dump(raw, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start ``repro serve`` for the service workload, optionally traced.

The traced run must wrap the server's layer boundaries before the
server builds any fleet pool, so the benchmark launches the server
through this script instead of ``python -m repro serve``::

    PYTHONPATH=src python -u benchmarks/e2e/serve.py [--trace-dir DIR] \
        -- --port 0 --workers 2 --db DB --out OUT

Everything after ``--`` is passed to ``repro serve``.  SIGINT stops the
server the usual way; the span buffer is then written to ``DIR``.

The server forks each job's pool workers from a process in which other
jobs' threads create and unlink shared-memory segments.  A fork that
lands while one of them holds the lock of multiprocessing's resource
tracker leaves the forked worker blocked on that lock for ever, in its
initializer.  When both workers of a pool block, an execution times out
after 60 s and its job fails.  This launcher gives every forked child a
fresh lock, so the benchmark measures the service without that hang.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading


def _fresh_tracker_lock() -> None:
    """After fork: the child owns no lock another thread held."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._lock = threading.RLock()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.cli.main import main as repro_main

    os.register_at_fork(after_in_child=_fresh_tracker_lock)
    recorder = None
    if args.trace_dir:
        import trace as spans  # benchmarks/e2e/trace.py

        recorder = spans.Recorder(args.trace_dir)
        spans.install(recorder)
    try:
        return repro_main(["serve"] + serve_args)
    finally:
        if recorder is not None:
            recorder.flush()
        from workloads import stop_resource_tracker

        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())

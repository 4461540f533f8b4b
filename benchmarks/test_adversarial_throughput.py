"""Adversarial solver throughput — corners solved and lowered per second.

The constraint-guided generator is only worth running in CI if solving
for a sampler corner is cheap next to executing the resulting program.
This bench times the two stages separately: bounded-model-check solving
(BFS over ``SamplerState`` snapshots, stepped by ``repro.core.sampling``'s
in-place rules) and lowering (witness →
oracle-grammar program, including the throttle-edge clock calibration
run), across several solver seeds, into ``BENCH_adversarial.json``.
"""

import json
import pathlib
import time

from conftest import once

from repro.oracle.adversarial import ALL_TARGETS, lower, solve_target

REPO_ROOT = pathlib.Path(__file__).parent.parent

SEEDS = (0, 1, 2, 3)  # distinct seeds defeat the solution cache


def test_adversarial_throughput(benchmark, artifact):
    def run():
        start = time.perf_counter()
        solutions = [
            solve_target(seed, target)
            for seed in SEEDS
            for target in ALL_TARGETS
        ]
        solve_seconds = time.perf_counter() - start

        solved = [s for s in solutions if s.solved]
        start = time.perf_counter()
        programs = [lower(solution) for solution in solved]
        lower_seconds = time.perf_counter() - start
        return solutions, solved, programs, solve_seconds, lower_seconds

    solutions, solved, programs, solve_seconds, lower_seconds = once(
        benchmark, run
    )

    attempts = len(SEEDS) * len(ALL_TARGETS)
    timeout_rate = (attempts - len(solved)) / attempts
    solved_per_sec = attempts / solve_seconds
    lowered_per_sec = len(programs) / lower_seconds
    nodes = sum(s.nodes_explored for s in solutions)

    lines = [
        f"adversarial solver: {attempts} (seed, target) attempts over "
        f"{len(ALL_TARGETS)} corner predicates",
        f"  solving:  {solve_seconds:8.3f} s "
        f"({solved_per_sec:8.1f} targets/s, {nodes} nodes explored)",
        f"  lowering: {lower_seconds:8.3f} s "
        f"({lowered_per_sec:8.1f} programs/s)",
        f"  timeout rate: {timeout_rate:.3f}",
    ]
    artifact("adversarial_throughput.txt", "\n".join(lines))

    payload = {
        "benchmark": "adversarial",
        "seeds": len(SEEDS),
        "targets": len(ALL_TARGETS),
        "attempts": attempts,
        "solved": len(solved),
        "nodes_explored": nodes,
        "solve_seconds": round(solve_seconds, 4),
        "targets_solved_per_sec": round(solved_per_sec, 1),
        "lower_seconds": round(lower_seconds, 4),
        "programs_lowered_per_sec": round(lowered_per_sec, 1),
        "solver_timeout_rate": round(timeout_rate, 4),
    }
    (REPO_ROOT / "BENCH_adversarial.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # The solved-targets floor: every corner predicate at every seed.
    assert len(solved) == attempts
    assert timeout_rate == 0.0
    # Every solved witness must lower (the calibration must converge).
    assert len(programs) == len(solved)

"""Braid scheduling policy exploration (the Figure 6 experiment).

Sweeps the paper's seven prioritization policies plus policy 7 (the
reservation-table family) and policy 8 (close-first in program order)
on a workload of your choice through the staged
:class:`repro.runner.SweepRunner`: the frontend is compiled once and
shared by every policy (see the cache statistics the run prints), and
results persist to an on-disk cache so re-runs are instant.

Run:  python examples/braid_policies.py [app] [size] [cache_dir]
      (defaults: im 12, no disk cache)
"""

import sys

from repro.network import POLICIES
from repro.runner import GridSpec, SweepRunner


def main(app: str = "im", size: int = 12, cache_dir: str | None = None) -> None:
    print(f"sweeping {app}[{size}] over policies 0-8 ...")
    grid = GridSpec(
        apps=(app,),
        sizes={app: size},
        policies=tuple(range(9)),
        distance=5,
    )
    runner = SweepRunner(cache_dir=cache_dir)
    sweep = runner.run(grid)

    first = sweep.points[0]
    print(
        f"{first.logical.total_operations} operations on "
        f"{first.logical.num_qubits} logical qubits; "
        f"ideal parallelism {first.logical.parallelism_factor:.1f}"
    )
    header = (
        f"{'policy':<8} {'sched/CP':>9} {'util%':>7} {'drops':>7} "
        f"{'adaptive':>9}  description"
    )
    print(header)
    print("-" * (len(header) + 30))
    for point in sweep.points:
        policy = POLICIES[point.spec.policy]
        result = point.braid
        print(
            f"{policy.name:<8} {result.schedule_to_critical_ratio:>9.2f} "
            f"{result.mean_utilization * 100:>7.1f} {result.drops:>7} "
            f"{result.adaptive_routes:>9}  {policy.description}"
        )
    print(
        f"\nswept {len(sweep.points)} points in "
        f"{sweep.elapsed_seconds:.2f}s; cache: {sweep.stats.summary()}"
    )


if __name__ == "__main__":
    app = sys.argv[1] if len(sys.argv) > 1 else "im"
    size = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    cache_dir = sys.argv[3] if len(sys.argv) > 3 else None
    main(app, size, cache_dir)

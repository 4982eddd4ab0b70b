"""Record (and validate) a workload's expected outputs.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 perfbench/record.py {fig6,sched,calib} \\
        [--profile tiny] [--out DIR]

The outputs are validated once, here, before they are written:

* every reactive simulation (policies 0-6) must equal
  ``simulate_braids_reference`` bit for bit;
* policies 7-8 must agree between the ``flat`` and ``vec`` engines, and
  policy 7's ``schedule_length`` must equal
  ``reservation_schedule(plan).makespan``.

Benchmark runs then compare against the written file and never re-run
the reference loop.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import tracing
import workloads as wl

RECORD_SEED = 0


def validate(workload: str, inputs: list, prof: wl.Profile, cache) -> dict:
    """Check every simulation against an independent result; count them."""
    from repro.network import (
        POLICIES,
        BraidMesh,
        reservation_schedule,
        simulate_braids_reference,
        simulate_plan,
    )
    from repro.runner import stages

    checked = {"reference_equal": 0, "flat_vs_vec_equal": 0, "makespan_equal": 0}
    for app, size, inline, opt, distance, policy in tracing.design(
        workload, inputs, prof
    )["sims"]:
        flat = stages.compute_braid(
            cache, app, size, inline, policy=policy, distance=distance,
            optimize_layout=opt,
        )
        where = f"{app}/{size}/i{inline}/opt{opt}/d{distance}/p{policy}"
        if POLICIES[policy].family == "reactive":
            machine = stages.compute_layout(cache, app, size, inline, opt)
            dag = stages.compute_frontend(cache, app, size, inline).dag
            reference = simulate_braids_reference(
                machine.circuit,
                machine.placement,
                BraidMesh(machine.grid.rows, machine.grid.cols),
                policy,
                distance,
                code=machine.code,
                factory_routers=machine.factory_routers,
                dag=dag,
            )
            if reference != flat:
                raise SystemExit(f"{where}: flat {flat} != reference {reference}")
            checked["reference_equal"] += 1
            continue
        plan = stages.compute_braid_plan(cache, app, size, inline, opt, distance)
        vec = simulate_plan(plan, POLICIES[policy], engine="vec")
        if vec != flat:
            raise SystemExit(f"{where}: flat {flat} != vec {vec}")
        checked["flat_vs_vec_equal"] += 1
        if policy == 7:
            makespan = reservation_schedule(plan).makespan
            if flat.schedule_length != makespan:
                raise SystemExit(
                    f"{where}: schedule_length {flat.schedule_length} != "
                    f"reservation makespan {makespan}"
                )
            checked["makespan_equal"] += 1
    return checked


def record(workload: str, profile_name: str) -> dict:
    from repro.runner import StageCache

    prof = wl.profile(profile_name)
    inputs = wl.make_inputs(workload, RECORD_SEED, prof)
    cache = StageCache()
    outputs = wl.run_workload(workload, inputs, cache, prof)
    if workload == "calib":
        outputs.update(wl.calib_braids(inputs, cache, prof))
    checked = validate(workload, inputs, prof, cache)
    return {
        "workload": workload,
        "profile": profile_name,
        "python": platform.python_version(),
        "validated": checked,
        "sim_cycles": wl.sim_cycles(outputs),
        "outputs": dict(sorted(outputs.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=wl.WORKLOADS)
    parser.add_argument("--profile", default="full", choices=wl.PROFILES)
    parser.add_argument("--out", type=Path, default=wl.EXPECTED_DIR)
    args = parser.parse_args(argv)
    payload = record(args.workload, args.profile)
    path = wl.expected_path(args.workload, args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"{path}: {len(payload['outputs'])} outputs, {payload['validated']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

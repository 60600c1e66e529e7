#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py [workload ...]

Runs every trial of each workload's corpus once, at the benchmark's pinned
thread count, and writes its status and total power to
perfbench/reference/<workload>.json.  The references in the repository were
made on the commit that introduced the benchmark; regenerate them only in a
change that edits the benchmark, never in one that claims a gain.
"""

import json
import sys

import run

if __name__ == "__main__":
    run.pin_threads()
    run.use_checkout_sources()
    import bench
    from softcell.simulate import run_trial
    from tracing import trial_key

    for name in sys.argv[1:] or sorted(bench.WORKLOADS):
        workload = bench.WORKLOADS[name]
        base = workload.make_config()
        trials = {}
        for value in workload.values:
            for trial in workload.trials:
                r = run_trial(base, "qos", value, workload.algorithm, trial)
                trials[trial_key(value, trial)] = {
                    "status": r.status,
                    "total_mw": r.total_mw if r.status == "optimal" else None}
                print(name, trial_key(value, trial), r.status, r.total_mw, flush=True)
        path = bench.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": name, "machine": bench.machine(),
                                    "trials": trials}, indent=1) + "\n")

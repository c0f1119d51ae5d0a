"""Record the reference output of every pool op of the named workloads.

    python3 bench/record_reference.py [workload ...]

Writes bench/reference/<workload>.json.  The references pin the outputs of the
commit they were recorded at: run.py counts an op whose output moves by more
than the optimizer tolerance as failed, so record again only when a change is
meant to move the estimates.
"""

from __future__ import annotations

import json
import sys
import time
import warnings

import run  # pins BLAS threads before numpy is imported


def main(argv) -> int:
    run.import_library()
    import workloads as wl

    warnings.simplefilter("ignore")
    names = argv or list(run.WORKLOAD_NAMES)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = wl.WORKLOADS[name]
        t0 = time.perf_counter()
        ops = [workload.run(inp) for inp in workload.make_pool()]
        with open(wl.reference_path(name), "w") as fh:
            json.dump({"workload": name, "commit": run.git_commit(),
                       "ops": ops}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(ops)} ops in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

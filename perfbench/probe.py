"""One timed import + set-up of the program in a fresh interpreter.

    python3 perfbench/probe.py --workload W --inputs DIR --work DIR

Prints one JSON object: import_s (``import earlyflow``, numpy included),
setup_s (the workload's set-up after the import) and read_s (the
read_dataset call inside that set-up, or null when set-up reads nothing).
run.py starts several of these per run and takes medians, so one slow
process does not decide setup_s or the set-up load rate.
"""

import argparse
import json
import os
import time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import earlyflow  # noqa: F401  (the package imports every module)
    import_s = time.perf_counter() - start

    import measure
    with open(os.path.join(args.inputs, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    workload = measure.WORKLOADS[args.workload](measure.import_program(), args.inputs, args.work,
                                                truth, measure.Ops())
    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    read_times = getattr(workload, "read_times", [])
    print(json.dumps({"import_s": import_s, "setup_s": setup_s,
                      "read_s": read_times[0] if read_times else None}))


if __name__ == "__main__":
    main()

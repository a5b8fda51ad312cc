"""Run one resizenet benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload infer_knob --seed 1 --seconds 35 --trace 0

Workloads: train_joint, infer_knob, infer_open (see workloads.py).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, and the spans are written to
``perfbench/out/spans-<workload>-seed<n>.json``.  Every result, with the
environment it was measured in, is also written to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# pinned before numpy is first imported; one thread never exceeds nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("train_joint", "infer_knob", "infer_open")


def environment(seed: int) -> dict:
    import numpy as np
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"machine": platform.machine(), "cpu": cpu,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resizenet" / "__init__.py").is_file():
        print(f"error: resizenet sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "train_joint":
        res = workloads.run_train(args.seed, args.seconds, trace, OUT)
    else:
        res = workloads.run_infer(args.workload.removeprefix("infer_"),
                                  args.seed, args.seconds, trace, OUT)
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                          for name, unit in units.items()}}
    env = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "environment": env,
                   "info": res["info"], "problems": res["problems"],
                   "result": result}, fh, indent=1)
    if trace:
        with open(OUT / f"spans-{stem}.json", "w") as fh:
            json.dump(res["spans"], fh)

    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:12.6g} {m['unit']}")
    print("info: " + json.dumps(res["info"]))
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

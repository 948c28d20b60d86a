"""fbmac benchmark: one workload per call, end to end or per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload figure1 --seed 0 --seconds 30 --trace 0

Workloads (see README.md): ``figure1``, ``sweep``, ``montecarlo``.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics ``wall_s``, ``cpu_s`` (medians over the rounds of the run),
``setup_s`` (median of several fresh-interpreter start-ups) and
``peak_rss_mb``; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead.  ``attempted`` and ``failed`` count the outputs checked
against ``oracle.py``; ``correct`` is false when an output that should pass
fails.  Exit code 2 when the checkout has no ``src/fbmac``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import KNOWN_FAULTS, MODULES  # noqa: E402

SETUP_STARTS = 5
WORKER_TIMEOUT_S = 170.0

#: per-layer metrics and their units, reported by ``--trace 1``
LAYER_UNITS = {
    "gaussquad.boundary_scale.calls": "count",
    "gaussquad.boundary_scale.busy_s": "s",
    "gaussquad.boundary_scale.ms_per_call": "ms",
    "regions.joint.busy_s": "s",
    "regions.iid.busy_s": "s",
    "regions.sumshell.busy_s": "s",
    "regions.splitting.busy_s": "s",
    "regions.gallager.busy_s": "s",
    "regions.tdma.busy_s": "s",
    "regions.outer.busy_s": "s",
    "regions.single_ray.calls": "count",
    "regions.single_ray.busy_s": "s",
    "cli.figure1_bundle.self_s": "s",
    "cli.emit_region.busy_s": "s",
    "cli.emit_region.bytes": "B",
    "shellmc.density_samples.busy_s": "s",
    "shellmc.density_samples.draws_per_s": "1/s",
    "shellmc.empirical_outage_p2p.busy_s": "s",
    "shellmc.clt_function_check.busy_s": "s",
    "shellmc.confusion_scaling_check.busy_s": "s",
    "simlink.simulate_mac.busy_s": "s",
    "simlink.simulate_mac.trials_per_s": "1/s",
    "simlink.simulate_p2p.busy_s": "s",
    "simlink.bounds.self_s": "s",
    "simlink.bounds.peak_alloc_mb": "MB",
    "rng.thread_map.calls": "count",
    "rng.thread_map.items": "count",
}


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FBMAC_")}
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # one worker: on a shared 2-vCPU host the wall time of a 2-worker run follows
    # the host's steal time (README, "Why one worker")
    env["FBMAC_THREADS"] = "1"
    return env


def _worker(workload: str, seed: int, extra: list) -> list:
    return [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), *extra]


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing the workload's modules and building its inputs."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run(_worker(workload, seed, ["--probe"]), env=_env(), check=True,
                       timeout=WORKER_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path("src") / "fbmac" / "__init__.py").is_file():
        print("perfbench: run from the root of an fbmac checkout (no src/fbmac here)", file=sys.stderr)
        return 2

    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    proc = subprocess.run(
        _worker(args.workload, args.seed, ["--seconds", str(args.seconds), "--trace", str(args.trace)]),
        env=_env(), stdout=subprocess.PIPE, check=True, timeout=WORKER_TIMEOUT_S, text=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    from checks import CHECKS

    attempted = failed = 0
    correct = True
    for i, rnd in enumerate(report["rounds"]):
        for op, ok, detail in CHECKS[args.workload](rnd["outputs"], args.seed):
            known = op in KNOWN_FAULTS
            if i == 0 and (ok is None or not ok or known):
                verdict = "not counted" if ok is None else ("pass" if ok else "FAIL")
                print(f"perfbench: {op}: {verdict}{' (known fault)' if known else ''}: {detail}", file=sys.stderr)
            if ok is None:
                continue
            attempted += 1
            failed += not ok
            correct = correct and bool(ok or known)

    walls = [r["wall_s"] for r in report["rounds"]]
    print(f"perfbench: {args.workload} seed {args.seed}: {len(walls)} rounds, wall "
          + ", ".join(f"{w:.3f}" for w in walls) + " s", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": report["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        print(f"perfbench: spans written to {report['trace_file']}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in report["rounds"]), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

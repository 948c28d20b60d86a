"""Workload process: calls fbmac and reports what it returned and what it cost.

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``:

    python3 perfbench/workloads.py --workload figure1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/workloads.py --workload sweep --seed 0 --probe

``--probe`` imports the modules the workload uses, builds its inputs and
exits; ``run.py`` times several such start-ups for ``setup_s``.  Otherwise
the process repeats whole rounds of the workload until the next round would
end after ``--seconds``, and prints one JSON line with the wall and CPU time
of every round, its peak RSS and every round's outputs.  The outputs are
checked by ``run.py`` against ``oracle.py``, outside this process, so that
neither the oracle's imports nor its work show in the measured figures.
With ``--trace 1`` the spans of ``tracing.py`` are recorded, written to
``.perfbench_out`` and summed into the per-layer figures of the report.

This module imports only the standard library at the top: whatever it
imports later is what the workload costs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import tempfile
import time
from pathlib import Path

OUT_DIR = Path(".perfbench_out")

#: the paper's design point; figure1 keeps it but samples 64 rays, see README
FIG = {"n": 500, "eps": 1e-3, "p1_db": 0.0, "p2_db": 0.0, "points": 64, "samples": 1 << 12}

#: (name, n, eps, p1_db, p2_db, rays, fixed_seed_kinds).  The kinds listed
#: last use seed 0 whatever the run's seed: at that seed they fail every time
#: (known faults of the quantile-set solver, see README), elsewhere they
#: would pass or fail with the seed.
SWEEP = (
    ("eps1e-6", 500, 1e-6, 0.0, 0.0, 32, ("joint", "iid", "sumshell")),
    ("unequal-10/0dB", 500, 1e-3, 10.0, 0.0, 32, ("sumshell",)),
    ("n1e4-eps0.1--10dB", 10_000, 1e-1, -10.0, -10.0, 32, ()),
)
KNOWN_FAULTS = {f"sweep/{name}/{kind}" for name, *_, fixed in SWEEP for kind in fixed}
SWEEP_KINDS = (
    "joint", "iid", "sumshell", "splitting", "gallager", "tdma",
    "su-outer", "conjectured-sum-outer", "pentagon",
)

#: README example of the link simulator and the acceptance point of the outage
MC = {
    "sim_n": 100, "m": 8, "p_db": -10.0, "sim_trials": 20_000, "bound_trials": 2_000_000,
    "outage_n": 500, "outage_eps": 1e-3, "outage_trials": 10_000_000,
    "clt_n": 1024, "clt_trials": 1_000_000, "conf_n": (400, 1600), "conf_trials": 1 << 20,
}

MODULES = {
    "figure1": ("fbmac.cli",),
    "sweep": ("fbmac.regions",),
    "montecarlo": ("fbmac.shellmc", "fbmac.simlink"),
}


def _import(names) -> None:
    """Import the workload's modules, refusing an fbmac from outside ``src``."""
    mods = [importlib.import_module(m) for m in names]
    src = Path("src").resolve()
    if not Path(mods[0].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"fbmac was imported from {mods[0].__file__}, not from {src}")


# ---------------------------------------------------------------------------
# figure1: the comparison bundle, all workers
# ---------------------------------------------------------------------------


def build_figure1(seed: int) -> dict:
    from fbmac import PowerPair, db_to_linear

    pp = PowerPair(db_to_linear(FIG["p1_db"]), db_to_linear(FIG["p2_db"]))
    return {"pp": pp, "seed": seed}


def round_figure1(inp: dict, out_dir: Path) -> Path:
    from fbmac import cli

    cli.figure1_bundle(FIG["n"], FIG["eps"], inp["pp"], out_dir, FIG["points"], FIG["samples"], inp["seed"])
    return out_dir


def outputs_figure1(inp: dict, out_dir: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# sweep: every region kind at a few operating points, one worker
# ---------------------------------------------------------------------------


def build_sweep(seed: int) -> list:
    from fbmac import PowerPair, db_to_linear
    from fbmac.regions import GallagerParams

    points = []
    for name, n, eps, d1, d2, rays, fixed in SWEEP:
        pp = PowerPair(db_to_linear(d1), db_to_linear(d2))
        seeds = {k: (0 if k in fixed else seed) for k in ("joint", "iid", "sumshell")}
        points.append((name, n, eps, pp, rays, seeds, GallagerParams(1.0, n, eps)))
    return points


def round_sweep(points: list, out_dir: Path) -> dict:
    from fbmac import regions as R

    out = {}
    for name, n, eps, pp, rays, seeds, gp in points:
        s = 1 << 12
        curves = {
            "joint": R.joint_outage_boundary(n, eps, pp, rays, s, seeds["joint"]),
            "iid": R.iid_gaussian_boundary(n, eps, pp, "n^-1/4", rays, s, seeds["iid"]),
            "sumshell": R.sumshell_hypothetical_boundary(n, eps, pp, rays, s, seeds["sumshell"]),
            "splitting": R.outage_splitting_boundary(n, eps, pp, 64, rays),
            "gallager": R.gallager_boundary(gp, pp, rays),
            "tdma": R.tdma_boundary(n, eps, pp),
            "su-outer": R.su_outer_box(n, eps, pp),
            "conjectured-sum-outer": R.conjectured_sum_outer_boundary(n, eps, pp),
            "pentagon": R.cover_wyner_pentagon(pp),
        }
        out[name] = curves
    return out


def outputs_sweep(points: list, result: dict) -> dict:
    return {
        name: {kind: {"points": rb.points.tolist(), "params": rb.params, "empty": rb.empty}
               for kind, rb in curves.items()}
        for name, curves in result.items()
    }


# ---------------------------------------------------------------------------
# montecarlo: link simulation, bound estimators and the shellmc checks
# ---------------------------------------------------------------------------


def build_montecarlo(seed: int) -> dict:
    import math

    from fbmac import PowerPair, capacity, db_to_linear, dispersion
    from fbmac.gaussquad import q_inv_scalar
    from fbmac.simlink import CodebookSpec, default_thresholds, shell_rn_constants

    p = db_to_linear(MC["p_db"])
    mac = CodebookSpec(n=MC["sim_n"], m1=MC["m"], m2=MC["m"], p1=p, p2=p, seed=seed)
    p2p = CodebookSpec(n=MC["sim_n"], m1=MC["m"], p1=p, seed=seed)
    n = MC["outage_n"]
    return {
        "seed": seed,
        "mac": mac,
        "mac_th": default_thresholds(mac, *shell_rn_constants(PowerPair(p, p))),
        "p2p": p2p,
        "p2p_th": default_thresholds(p2p, 1.0, 1.0, 1.0),
        "outage_thr": n * capacity(1.0) - math.sqrt(n * dispersion(1.0)) * q_inv_scalar(MC["outage_eps"]),
        "clt_pp": PowerPair(1.0, 1.0),
    }


def round_montecarlo(inp: dict, out_dir: Path) -> dict:
    from fbmac import shellmc, simlink

    seed = inp["seed"]
    return {
        "simulate_mac": simlink.simulate_mac(inp["mac"], inp["mac_th"], MC["sim_trials"]),
        "simulate_p2p": simlink.simulate_p2p(inp["p2p"], inp["p2p_th"], MC["sim_trials"]),
        "bound_joint": simlink.mac_achievability_bound(inp["mac"], inp["mac_th"], MC["bound_trials"], mode="joint"),
        "bound_splitting": simlink.mac_achievability_bound(
            inp["mac"], inp["mac_th"], MC["bound_trials"], mode="splitting"
        ),
        "outage": shellmc.empirical_outage_p2p(
            MC["outage_n"], 1.0, inp["outage_thr"], MC["outage_trials"], seed=seed
        ),
        "clt": shellmc.clt_function_check("mac-joint", MC["clt_n"], MC["clt_trials"], seed, pp=inp["clt_pp"]),
        "confusion": shellmc.confusion_scaling_check(list(MC["conf_n"]), 1.0, seed, MC["conf_trials"]),
    }


def outputs_montecarlo(inp: dict, result: dict) -> dict:
    def fields(obj, names):
        return {k: getattr(obj, k) for k in names}

    sim = ("trials", "errors", "eps_hat")
    bound = ("value", "std_err", "outage", "confusion", "trials")
    clt = result["clt"]
    return {
        "simulate_mac": fields(result["simulate_mac"], sim),
        "simulate_p2p": fields(result["simulate_p2p"], sim),
        "bound_joint": fields(result["bound_joint"], bound),
        "bound_splitting": fields(result["bound_splitting"], bound),
        "outage": {**fields(result["outage"], ("value", "std_err", "trials")), "threshold": inp["outage_thr"]},
        "clt": {"ks_distance": clt.ks_distance, "cov_rel_err": clt.cov_rel_err,
                "target_cov": clt.target_cov.tolist()},
        "confusion": [fields(q, ("n", "value", "std_err")) for q in result["confusion"]],
    }


WORKLOADS = {
    "figure1": (build_figure1, round_figure1, outputs_figure1),
    "sweep": (build_sweep, round_sweep, outputs_sweep),
    "montecarlo": (build_montecarlo, round_montecarlo, outputs_montecarlo),
}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(name: str, seed: int, seconds: float, tracer=None) -> dict:
    build, one_round, outputs = WORKLOADS[name]
    inp = build(seed)
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    rounds = []
    try:
        start = time.perf_counter()
        while True:
            w0, c0 = time.perf_counter(), _cpu_s()
            result = one_round(inp, out_dir)
            w1, c1 = time.perf_counter(), _cpu_s()
            rounds.append({"wall_s": w1 - w0, "cpu_s": c1 - c0,
                           "outputs": outputs(inp, result)})
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report = {"rounds": rounds, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(len(rounds))
        report["trace_file"] = str(tracer.dump(OUT_DIR / f"trace-{name}-seed{seed}.jsonl"))
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="import and build the inputs, then exit")
    args = ap.parse_args(argv)
    _import(MODULES[args.workload])
    if args.probe:
        WORKLOADS[args.workload][0](args.seed)
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    report = measure(args.workload, args.seed, args.seconds, tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

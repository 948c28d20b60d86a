"""Checks of every workload output against ``oracle.py``; nothing here imports fbmac.

Each check returns ``(operation, ok, detail)``.  One operation is one
boundary, one bundle manifest or one Monte Carlo estimate; ``ok`` is None
for an output whose verdict would depend on the seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle as O
from workloads import FIG, MC, SWEEP, SWEEP_KINDS

#: radial tolerance in nats, the one fbmac's figure1 nesting checks apply
TOL = 2e-3
#: at the figure point the sum-shell radii leave the oracle bracket by up to
#: 2.4e-3 nats below and 1.8e-3 above, depending on the seed (README, known
#: faults), so that check would pass or fail with the seed: its verdict is
#: None, reported and not counted
SEED_DEPENDENT = {"sumshell"}
LN2 = math.log(2.0)


def _radial(points: np.ndarray):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.arctan2(pts[:, 1], pts[:, 0]), np.hypot(pts[:, 0], pts[:, 1])


def _quantile(points, kind, n, eps, p1, p2, delta=0.0):
    cvec, sigma = O.quantile_region(kind, n, p1, p2, delta)
    thetas, radii = _radial(points)
    br = np.array([O.radius_bracket(n, eps, cvec, sigma, t) for t in thetas])
    under = float((br[:, 0] - radii).max())
    over = float((radii - br[:, 1]).max())
    return under <= TOL and over <= TOL, f"below union-bound radius by {under:.2e}, above single-tail radius by {over:.2e}"


def _below_upper(points, n, eps, p1, p2):
    if len(points) == 0:
        return True, "empty"
    cvec, sigma = O.quantile_region("joint", n, p1, p2)
    thetas, radii = _radial(points)
    over = max(r - O.radius_bracket(n, eps, cvec, sigma, t)[1] for t, r in zip(thetas, radii))
    return over <= TOL, f"above the joint single-tail radius by {over:.2e}"


def _inside_pentagon(points, p1, p2, num_tol):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    c = O.capacities(p1, p2)
    excess = max(float((pts[:, 0] - c[0]).max()), float((pts[:, 1] - c[1]).max()),
                 float((pts.sum(axis=1) - c[2]).max()))
    return excess <= num_tol, f"outside the capacity pentagon by {excess:.2e}"


def _outer(points, kind, n, eps, p1, p2, num_tol):
    want = O.outer_vertices(kind, n, eps, p1, p2)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape != want.shape:
        return False, f"{pts.shape[0]} corners, closed form has {want.shape[0]}"
    err = float(np.abs(pts - want).max())
    ok, detail = err <= num_tol, f"corners off the closed form by {err:.2e}"
    if kind == "su-outer":  # the box contains the joint region, hence its union-bound radius
        cvec, sigma = O.quantile_region("joint", n, p1, p2)
        thetas = (np.arange(64) + 0.5) / 64 * (math.pi / 2)
        short = max(O.radius_bracket(n, eps, cvec, sigma, t)[0] - min(want[1, 0] / math.cos(t), want[1, 1] / math.sin(t))
                    for t in thetas)
        ok = ok and short <= TOL
        detail += f"; short of the union-bound radius by {short:.2e}"
    return ok, detail


def check_curve(kind, points, n, eps, p1, p2, rays, delta=0.0, num_tol=1e-9):
    if kind in ("joint", "iid", "sumshell", "splitting", "gallager") and len(points) not in (0, rays):
        return False, f"{len(points)} points for {rays} rays"
    if kind in ("joint", "iid", "sumshell"):
        return _quantile(points, kind, n, eps, p1, p2, delta)
    if kind in ("splitting", "gallager"):
        return _below_upper(points, n, eps, p1, p2)
    if kind == "tdma":
        return _inside_pentagon(points, p1, p2, num_tol)
    return _outer(points, kind, n, eps, p1, p2, num_tol)


# ---------------------------------------------------------------------------
# figure1: the bundle as written to disk (bits, six decimals)
# ---------------------------------------------------------------------------


def _read_csv(text: str):
    lines = text.splitlines()
    config = json.loads(lines[1].removeprefix("# config: "))
    rows = [tuple(map(float, ln.split(","))) for ln in lines[3:]]
    return config, np.array(rows, dtype=float).reshape(-1, 2) * LN2


def check_figure1(files: dict, seed: int) -> list:
    n, eps = FIG["n"], FIG["eps"]
    p1, p2 = 10 ** (FIG["p1_db"] / 10), 10 ** (FIG["p2_db"] / 10)
    csv_tol = 1e-6  # six decimals of bits
    manifest = json.loads(files["manifest.json"])
    results, rows = [], {}
    for entry in manifest["files"]:
        kind, name = entry["kind"], entry["name"]
        config, pts = _read_csv(files[name])
        rows[name] = pts.shape[0]
        ok, detail = check_curve(kind, pts, n, eps, p1, p2, FIG["points"], num_tol=csv_tol)
        ok = ok and config["kind"] == kind and config["seed"] == seed
        results.append((f"figure1/{kind}", None if kind in SEED_DEPENDENT else ok, detail))
    sym = manifest["nesting"]["symmetric"]
    th = sym["theta"]
    brackets = {k: O.radius_bracket(n, eps, *O.quantile_region(k, n, p1, p2), th) for k in ("joint", "iid")}
    inside = all(brackets[k][0] - TOL <= sym[k] <= brackets[k][1] + TOL for k in brackets)
    c = O.capacities(p1, p2)
    ok = (
        len(manifest["files"]) == 9 == len(rows)
        and all(e["rows"] == rows[e["name"]] for e in manifest["files"])
        and manifest["config"]["seed"] == seed
        and inside
        and sym["splitting"] <= brackets["joint"][1] + TOL
        and sym["tdma"] * (math.cos(th) + math.sin(th)) <= c[2]
    )
    results.append(("figure1/manifest", ok, f"symmetric-ray radii inside the oracle brackets: {inside}; "
                                            f"fbmac's own nesting verdict: {manifest['nesting']['ok']}"))
    return results


# ---------------------------------------------------------------------------
# sweep: boundaries returned in memory (nats)
# ---------------------------------------------------------------------------


def check_sweep(points: dict, seed: int) -> list:
    results = []
    for name, n, eps, d1, d2, rays, _ in SWEEP:
        p1, p2 = 10 ** (d1 / 10), 10 ** (d2 / 10)
        delta = float(n) ** -0.25  # the n^-1/4 back-off the sweep asks for
        for kind in SWEEP_KINDS:
            out = points[name][kind]
            ok, detail = check_curve(kind, out["points"], n, eps, p1, p2, rays, delta)
            if kind == "iid" and out["params"]["delta"] != delta:
                ok, detail = False, f"back-off {out['params']['delta']} instead of {delta}"
            results.append((f"sweep/{name}/{kind}", ok, detail))
    return results


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def _sim_se(sim: dict) -> float:
    e = sim["eps_hat"]
    return math.sqrt(max(e * (1.0 - e), 1e-12) / sim["trials"])


def check_montecarlo(out: dict, seed: int) -> list:
    p = 10 ** (MC["p_db"] / 10)
    sim_mac, sim_p2p = out["simulate_mac"], out["simulate_p2p"]
    joint, split = out["bound_joint"], out["bound_splitting"]
    results = []

    margin = 2.0 * math.hypot(_sim_se(sim_mac), joint["std_err"])
    results.append(("montecarlo/simulate_mac", sim_mac["eps_hat"] <= joint["value"] + margin,
                    f"simulated {sim_mac['eps_hat']:.4f} vs joint bound {joint['value']:.4f} + {margin:.4f}"))

    dt = O.dt_bound_p2p(MC["sim_n"], p, MC["m"])
    margin = 2.0 * _sim_se(sim_p2p)
    results.append(("montecarlo/simulate_p2p", sim_p2p["eps_hat"] <= dt + margin,
                    f"simulated {sim_p2p['eps_hat']:.4f} vs dependence-testing bound {dt:.4f} + {margin:.4f}"))

    consistent = all(abs(b["value"] - b["outage"] - b["confusion"]) <= 1e-12 for b in (joint, split))
    results.append(("montecarlo/bounds", consistent and split["value"] >= joint["value"],
                    f"splitting {split['value']:.4f} >= joint {joint['value']:.4f}"))

    o = out["outage"]
    exact = O.p2p_outage(MC["outage_n"], 1.0, o["threshold"])
    results.append(("montecarlo/empirical_outage_p2p", abs(o["value"] - exact) <= 4.0 * o["std_err"],
                    f"{o['value']:.6e} vs quadrature {exact:.6e}, 4 se {4 * o['std_err']:.1e}"))

    clt = out["clt"]
    want = O.clt_cov_mac(MC["clt_n"], 1.0, 1.0)
    cov_err = float(np.abs(np.array(clt["target_cov"]) - want).max() / np.abs(want).max())
    ks_max = max(0.01, 3.0 / math.sqrt(MC["clt_n"]))
    results.append(("montecarlo/clt_function_check",
                    cov_err <= 1e-12 and clt["cov_rel_err"] <= 0.02 and clt["ks_distance"] <= ks_max,
                    f"target vs J Cov J^T {cov_err:.1e}, empirical cov {clt['cov_rel_err']:.4f}, "
                    f"KS {clt['ks_distance']:.4f} <= {ks_max:.3f}"))

    devs = []
    for q in out["confusion"]:
        lg = q["n"] * O.capacity(1.0) - math.sqrt(q["n"] * O.dispersion(1.0))
        devs.append(abs(q["value"] - O.p2p_confusion(q["n"], 1.0, lg)) / q["std_err"])
    first, last = out["confusion"][0], out["confusion"][-1]
    expected = math.sqrt(last["n"] / first["n"])
    ratio = first["value"] / last["value"]
    results.append(("montecarlo/confusion_scaling_check",
                    max(devs) <= 4.0 and 0.7 * expected <= ratio <= 1.45 * expected,
                    f"largest deviation from quadrature {max(devs):.2f} se; ratio {ratio:.3f} vs sqrt {expected:.3f}"))
    return results


CHECKS = {"figure1": check_figure1, "sweep": check_sweep, "montecarlo": check_montecarlo}

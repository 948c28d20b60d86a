"""Command-line front end: parse, dispatch, emit CSV/JSON.

Payloads are deterministic for a fixed resolved configuration (seed
included): no timestamps are embedded, numbers serialize with 6 decimals in
CSV and full precision in JSON, and every emitted file carries the resolved
configuration so a run can be reproduced from its output.  Wall time goes to
stderr only.

Exit codes: 0 success, 2 usage error, 1 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._rng import default_seed
from .core import DomainError, PowerPair, db_to_linear, nats_to_bits
from .gaussquad import BracketError
from .regions import (
    REGIONS,
    RegionBoundary,
    RegionOptions,
    p2p_second_order_rate,
    pentagon_ray,
    ray_angles,
    second_order_ray,
    splitting_ray,
    tdma_ray,
)

# unused here: perfbench/tracing.py wraps the builders and gallager_ray as attributes of fbmac.cli
from .regions import (  # noqa: F401
    conjectured_sum_outer_boundary,
    cover_wyner_pentagon,
    gallager_boundary,
    gallager_ray,
    iid_gaussian_boundary,
    joint_outage_boundary,
    outage_splitting_boundary,
    su_outer_box,
    sumshell_hypothetical_boundary,
    tdma_boundary,
)
from .shellmc import (
    bessel_ratio_bound_check,
    bessel_ratio_bound_grid,
    clt_function_check,
    clt_passes,
    confusion_scaling_check,
    confusion_scaling_verdict,
    inner_product_variance_ratio,
    rn_bound_mac_check,
    rn_bound_p2p_check,
    rn_bound_passes,
    variance_ratio_passes,
)
from .simlink import (
    CodebookSpec,
    default_thresholds,
    mac_achievability_bound,
    p2p_achievability_bound,
    shell_rn_constants,
    simulate_mac,
    simulate_p2p,
)

#: most checks ``verify bessel --grid N`` makes (N^2 of them, a few microseconds each)
_BESSEL_GRID_CALLS = 1 << 20


def emit_region(rb: RegionBoundary, fmt: str, config: dict) -> bytes:
    """Serialize a boundary; byte-identical for identical (boundary, config)."""
    if fmt == "csv":
        lines = [
            f"# fbmac {__version__}",
            "# config: " + json.dumps(config, sort_keys=True, allow_nan=False),
            f"r1_{rb.units},r2_{rb.units}",
        ]
        lines += [f"{r1:.6f},{r2:.6f}" for r1, r2 in rb.points]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = {
            "tool": "fbmac",
            "version": __version__,
            "config": config,
            "kind": rb.kind,
            "params": rb.params,
            "units": rb.units,
            "empty": rb.empty,
            "points": [[float(a), float(b)] for a, b in rb.points],
        }
        return (json.dumps(payload, sort_keys=True, allow_nan=False) + "\n").encode()
    raise DomainError(f"unknown format {fmt!r}")


def _emit_json(obj: dict, out) -> None:
    """Write ``obj`` as strict JSON: a non-finite number raises ValueError (exit 1) before a byte is written."""
    _write_bytes((json.dumps(obj, sort_keys=True, allow_nan=False) + "\n").encode(), out)


def _write_bytes(data: bytes, out) -> None:
    if out in (None, "-"):
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        Path(out).write_bytes(data)


def _nesting_checks(curves: dict, n, eps, pp, opts: RegionOptions) -> dict:
    """The inclusions judged on the curves the bundle ships, plus the symmetric-ray rate ordering.

    ``curves`` maps each kind to its boundary in nats.  Each relation's slack is a difference of
    polar radii at every curve ray; ``rays`` keeps the worst slack and its angle.  The TDMA
    ordering is a symmetric-ray statement only: near the axes time sharing hands one user the
    whole block and legitimately beats the joint ensembles there.
    """
    thetas = ray_angles(opts.points)
    r = {k: np.hypot(*curves[k].points[::-1].T) for k in ("joint", "iid", "sumshell", "splitting", "gallager")}
    if curves["gallager"].empty:  # the exponent budget already fails at the origin
        r["gallager"] = np.zeros(thetas.size)
    box = pentagon_ray(thetas, *curves["su-outer"].points.max(axis=0), math.inf)  # (b1, b2) is its corner
    tol = 2e-3
    ray_slack = {
        "iid_le_joint": r["joint"] - r["iid"],
        "splitting_le_joint": r["joint"] - r["splitting"],
        "joint_lt_sumshell": r["sumshell"] - r["joint"],
        "gallager_le_joint": r["joint"] - r["gallager"],
        "achievable_in_su_box": box - np.max([r["joint"], r["splitting"], r["iid"]], axis=0),
    }
    rays = {}
    for name, s in ray_slack.items():
        i = int(np.argmin(s))
        rays.update({name: _holds(name, s[i], tol), f"{name}_slack": float(s[i]), f"{name}_theta": float(thetas[i])})
    th = math.pi / 4.0
    sym = {
        "theta": th,
        "tdma": tdma_ray(n, eps, pp, th),
        "iid": second_order_ray(n, eps, pp, th, "iid", opts.samples, opts.seed),
        "splitting": splitting_ray(n, eps, pp, th),
        "joint": second_order_ray(n, eps, pp, th, "shell", opts.samples, opts.seed),
        "sumshell": second_order_ray(n, eps, pp, th, "sumshell", opts.samples, opts.seed),
    }
    slack = {
        "tdma_lt_iid": sym["iid"] - sym["tdma"],
        "iid_lt_splitting": sym["splitting"] - sym["iid"],
        "splitting_le_joint": sym["joint"] - sym["splitting"],
        "joint_lt_sumshell": sym["sumshell"] - sym["joint"],
    }
    sym.update({f"{name}_slack": s for name, s in slack.items()})
    sym["ordering_ok"] = all(_holds(name, s, tol) for name, s in slack.items())
    return {"ok": all(rays[name] for name in ray_slack) and sym["ordering_ok"], "rays": rays, "symmetric": sym}


def _holds(name: str, slack: float, tol: float) -> bool:
    """Whether an inequality holds to ``tol`` nats; only ``a_lt_b`` names are strict."""
    return bool(slack > -tol if "_lt_" in name else slack >= -tol)


def figure1_bundle(n: int, eps: float, pp: PowerPair, out_dir, points=256, samples=1 << 12, seed=0) -> dict:
    """Emit the eight comparison curves plus the pentagon and a manifest."""
    out = Path(out_dir)
    config = {
        "command": "figure1",
        "n": n,
        "eps": eps,
        "p1": pp.p1,
        "p2": pp.p2,
        "points": points,
        "samples": samples,
        "seed": seed,
        "units": "bits",
    }
    opts = RegionOptions(points, samples, seed)
    curves = {kind: build(n, eps, pp, opts) for kind, (_, build) in REGIONS.items()}
    out.mkdir(parents=True, exist_ok=True)  # only once every curve is built: a refused run writes nothing
    files = []
    for kind, (fname, _) in REGIONS.items():
        rb = curves[kind].in_units("bits")
        data = emit_region(rb, "csv", {**config, "kind": kind, "file": fname})
        (out / fname).write_bytes(data)
        files.append({"name": fname, "kind": kind, "rows": int(rb.points.shape[0])})
    manifest = {
        "tool": "fbmac",
        "version": __version__,
        "config": config,
        "files": files,
        "nesting": _nesting_checks(curves, n, eps, pp, opts),
    }
    data = json.dumps(manifest, sort_keys=True, indent=1, allow_nan=False)
    (out / "manifest.json").write_bytes((data + "\n").encode())
    return manifest


def _add_common(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--p1-db", type=float, required=True, dest="p1_db")
    p.add_argument("--p2-db", type=float, required=True, dest="p2_db")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fbmac", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("region", help="emit one rate-region boundary")
    rp.add_argument("--kind", required=True, choices=list(REGIONS))
    _add_common(rp)
    rp.add_argument("--points", type=int, default=256)
    rp.add_argument("--samples", type=int, default=1 << 12)
    rp.add_argument("--units", choices=["nats", "bits"], default="nats")
    rp.add_argument("--format", choices=["csv", "json"], default="csv")
    rp.add_argument("--delta-rule", default="zero", dest="delta_rule")
    rp.add_argument("--gallager-a", type=float, default=1.0, dest="gallager_a")

    pp_ = sub.add_parser("p2p", help="print the point-to-point second-order rate")
    pp_.add_argument("--n", type=int, required=True)
    pp_.add_argument("--eps", type=float, required=True)
    pp_.add_argument("--p-db", type=float, required=True, dest="p_db")
    pp_.add_argument("--units", choices=["nats", "bits"], default="nats")

    sp = sub.add_parser("simulate", help="random-coding link simulation")
    sp.add_argument("mode", choices=["p2p", "mac"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--p1-db", type=float, required=True, dest="p1_db")
    sp.add_argument("--p2-db", type=float, default=None, dest="p2_db")
    sp.add_argument("--m1", type=int, required=True)
    sp.add_argument("--m2", type=int, default=1)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--k1", type=float, default=1.0)
    sp.add_argument("--k2", type=float, default=1.0)
    sp.add_argument("--k3", type=float, default=None)

    vp = sub.add_parser("verify", help="numeric verification verdicts")
    vsub = vp.add_subparsers(dest="target", required=True)

    v_rn1 = vsub.add_parser("rn-p2p")
    v_rn1.add_argument("--p", type=float, required=True)

    v_rn2 = vsub.add_parser("rn-mac")
    v_rn2.add_argument("--p1", type=float, required=True)
    v_rn2.add_argument("--p2", type=float, required=True)

    v_bes = vsub.add_parser("bessel")
    v_bes.add_argument("--k", type=float, default=None)
    v_bes.add_argument("--z", type=float, default=None)
    v_bes.add_argument("--grid", type=int, default=0, help="check an NxN (k, z) grid")
    v_bes.add_argument("--seed", type=int, default=None)

    v_clt = vsub.add_parser("clt")
    v_clt.add_argument("--case", choices=["p2p", "mac-joint"], default="p2p")
    v_clt.add_argument("--n", type=int, required=True)
    v_clt.add_argument("--trials", type=int, default=100_000)
    v_clt.add_argument("--p", type=float, default=1.0)
    v_clt.add_argument("--p1", type=float, default=1.0)
    v_clt.add_argument("--p2", type=float, default=1.0)
    v_clt.add_argument("--seed", type=int, default=None)

    v_ip = vsub.add_parser("inner-product")
    v_ip.add_argument("--n", type=int, default=100)
    v_ip.add_argument("--p1", type=float, default=1.0)
    v_ip.add_argument("--p2", type=float, default=1.0)
    v_ip.add_argument("--pairs", type=int, default=100_000)
    v_ip.add_argument("--seed", type=int, default=None)

    v_cs = vsub.add_parser("confusion-scaling")
    v_cs.add_argument("--p", type=float, default=1.0)
    v_cs.add_argument("--n-list", type=int, nargs="+", default=[400, 1600], dest="n_list")
    v_cs.add_argument("--trials", type=int, default=1 << 17)
    v_cs.add_argument("--seed", type=int, default=None)

    v_b = vsub.add_parser("bounds")
    v_b.add_argument("--mode", choices=["p2p", "mac-joint", "mac-splitting"], required=True)
    v_b.add_argument("--n", type=int, required=True)
    v_b.add_argument("--m1", type=int, required=True)
    v_b.add_argument("--m2", type=int, default=1)
    v_b.add_argument("--p1-db", type=float, required=True, dest="p1_db")
    v_b.add_argument("--p2-db", type=float, default=None, dest="p2_db")
    v_b.add_argument("--sim-trials", type=int, default=20_000, dest="sim_trials")
    v_b.add_argument("--bound-trials", type=int, default=200_000, dest="bound_trials")
    v_b.add_argument("--seed", type=int, default=None)
    for target in vsub.choices.values():  # every verdict goes to stdout or --out
        target.add_argument("--out", default=None)

    fp = sub.add_parser("figure1", help="emit the full comparison bundle")
    fp.add_argument("--n", type=int, default=500)
    fp.add_argument("--eps", type=float, default=1e-3)
    fp.add_argument("--p1-db", type=float, default=0.0, dest="p1_db")
    fp.add_argument("--p2-db", type=float, default=0.0, dest="p2_db")
    fp.add_argument("--points", type=int, default=256)
    fp.add_argument("--samples", type=int, default=1 << 12)
    fp.add_argument("--seed", type=int, default=None)
    fp.add_argument("--out-dir", required=True, dest="out_dir")

    return ap


def _resolved_seed(args) -> int:
    """``--seed``, else ``FBMAC_SEED``, else 0; the one place a seed is checked."""
    seed = default_seed() if getattr(args, "seed", None) is None else args.seed
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _cmd_region(args) -> int:
    pp = PowerPair(db_to_linear(args.p1_db), db_to_linear(args.p2_db))
    args.seed = _resolved_seed(args)
    opts = RegionOptions(**{f: getattr(args, f) for f in RegionOptions._fields})
    _, build = REGIONS[args.kind]
    rb = build(args.n, args.eps, pp, opts).in_units(args.units)
    config = {k: v for k, v in vars(args).items() if k != "out"}  # every option but where to write
    _write_bytes(emit_region(rb, args.format, config), args.out)
    return 0


def _cmd_p2p(args) -> int:
    rate = p2p_second_order_rate(args.n, args.eps, db_to_linear(args.p_db))
    if args.units == "bits":
        rate = nats_to_bits(rate)
    print(f"{rate:.6f}")
    return 0


def _link_spec(args, seed: int) -> CodebookSpec:
    """The codebooks of ``simulate`` and ``verify bounds``: one user in p2p mode, two otherwise."""
    p1 = db_to_linear(args.p1_db)
    if args.mode == "p2p":
        return CodebookSpec(n=args.n, m1=args.m1, p1=p1, seed=seed)
    if args.p2_db is None:
        raise DomainError(f"--p2-db is required in {args.mode} mode")
    return CodebookSpec(n=args.n, m1=args.m1, m2=args.m2, p1=p1, p2=db_to_linear(args.p2_db), seed=seed)


def _cmd_simulate(args) -> int:
    seed = _resolved_seed(args)
    spec = _link_spec(args, seed)
    if args.mode == "p2p":
        th = default_thresholds(spec, args.k1, args.k1, args.k1)
        res = simulate_p2p(spec, th, args.trials)
    else:
        k3 = args.k3
        if k3 is None:
            k3 = shell_rn_constants(PowerPair(spec.p1, spec.p2))[2]
        th = default_thresholds(spec, args.k1, args.k2, k3)
        res = simulate_mac(spec, th, args.trials)
    _emit_json(
        {
            "command": "simulate",
            "mode": args.mode,
            "config": {
                "n": args.n,
                "m1": args.m1,
                "m2": args.m2 if args.mode == "mac" else 1,
                "trials": args.trials,
                "seed": seed,
            },
            "trials": res.trials,
            "errors": res.errors,
            "eps_hat": res.eps_hat,
            "ci95": [res.ci95_low, res.ci95_high],
            # a trivial codebook has no test: its threshold -inf is written as null
            "thresholds": [None if g == -math.inf else g for g in (th.log_gamma1, th.log_gamma2, th.log_gamma3)],
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    seed = _resolved_seed(args)
    if args.target in ("rn-p2p", "rn-mac"):
        if args.target == "rn-p2p":
            inputs = {"p": args.p}
            expected = 1.0 + args.p
            rep = rn_bound_p2p_check(args.p)
        else:
            inputs = {"p1": args.p1, "p2": args.p2}
            expected = args.p1 + args.p2
            rep = rn_bound_mac_check(PowerPair(args.p1, args.p2))
        verdict = {
            "target": args.target,
            **inputs,
            "max": rep.max_value,
            "argmax": rep.argmax,
            "expected_argmax": expected,
            "constants": rep.constants,
            "pass": rn_bound_passes(rep, expected),
        }
    elif args.target == "bessel":
        if args.grid:
            if not 0 < args.grid <= math.isqrt(_BESSEL_GRID_CALLS):
                raise DomainError(f"--grid N makes N^2 checks, at most {_BESSEL_GRID_CALLS}")
            verdict = {"target": "bessel", "grid": args.grid, "pass": bessel_ratio_bound_grid(args.grid, seed)}
        else:
            if args.k is None or args.z is None:
                raise DomainError("need --k and --z (or --grid)")
            rep = bessel_ratio_bound_check(args.k, args.z)
            verdict = {
                "target": "bessel",
                "k": args.k,
                "z": args.z,
                "log_lhs": rep.log_lhs,
                "log_rhs": rep.log_rhs,
                "pass": bool(rep.holds),
            }
    elif args.target == "clt":
        pp = PowerPair(args.p1, args.p2)
        rep = clt_function_check(args.case, args.n, args.trials, seed, p=args.p, pp=pp)
        verdict = {
            "target": "clt",
            "case": args.case,
            "n": args.n,
            "trials": args.trials,
            "ks_distance": rep.ks_distance,
            "cov_rel_err": rep.cov_rel_err,
            "pass": clt_passes(rep),
        }
    elif args.target == "inner-product":
        ratio = inner_product_variance_ratio(args.n, PowerPair(args.p1, args.p2), args.pairs, seed)
        verdict = {
            "target": "inner-product",
            "n": args.n,
            "pairs": args.pairs,
            "variance_ratio": ratio,
            "pass": variance_ratio_passes(ratio),
        }
    elif args.target == "confusion-scaling":
        pts = confusion_scaling_check(args.n_list, args.p, seed, args.trials)
        payload = [{"n": q.n, "value": q.value, "std_err": q.std_err} for q in pts]
        ratio, expected, ok = confusion_scaling_verdict(pts)
        verdict = {
            "target": "confusion-scaling",
            "points": payload,
            "ratio_first_last": ratio,
            "expected_sqrt_ratio": expected,
            "pass": ok,
        }
    elif args.target == "bounds":
        verdict = _verify_bounds(args, seed)
    else:  # pragma: no cover
        raise DomainError(f"unknown verify target {args.target!r}")
    _emit_json(verdict, getattr(args, "out", None))
    return 0


def _verify_bounds(args, seed: int) -> dict:
    # the bound runs first, so an over-budget --bound-trials is refused before the simulation draws
    spec = _link_spec(args, seed)
    if args.mode == "p2p":
        th = default_thresholds(spec, 1.0, 1.0, 1.0)
        rhs = p2p_achievability_bound(spec, th, args.bound_trials)
        sim = simulate_p2p(spec, th, args.sim_trials)
    else:
        th = default_thresholds(spec, *shell_rn_constants(PowerPair(spec.p1, spec.p2)))
        mode = "joint" if args.mode == "mac-joint" else "splitting"
        rhs = mac_achievability_bound(spec, th, args.bound_trials, mode=mode)
        sim = simulate_mac(spec, th, args.sim_trials)
    sim_se = math.sqrt(max(sim.eps_hat * (1 - sim.eps_hat), 1e-300) / sim.trials)
    margin = 2.0 * math.hypot(sim_se, rhs.std_err)
    return {
        "target": "bounds",
        "mode": args.mode,
        "eps_hat": sim.eps_hat,
        "bound": rhs.value,
        "outage": rhs.outage,
        "confusion": rhs.confusion,
        "sim_std_err": sim_se,
        "bound_std_err": rhs.std_err,
        "margin": margin,
        "pass": bool(sim.eps_hat <= rhs.value + margin),
    }


def _cmd_figure1(args) -> int:
    pp = PowerPair(db_to_linear(args.p1_db), db_to_linear(args.p2_db))
    seed = _resolved_seed(args)
    manifest = figure1_bundle(args.n, args.eps, pp, args.out_dir, args.points, args.samples, seed)
    print(json.dumps({"out_dir": args.out_dir, "files": len(manifest["files"])}), file=sys.stderr)
    return 0


_DISPATCH = {
    "region": _cmd_region,
    "p2p": _cmd_p2p,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "figure1": _cmd_figure1,
}


def run(argv=None) -> int:
    """Parse, dispatch, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        code = _DISPATCH[args.command](args)
    except DomainError as exc:
        print(f"fbmac: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ValueError, ArithmeticError, OSError) as exc:
        print(f"fbmac: {exc}", file=sys.stderr)
        return 1
    print(f"fbmac: done in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


main = run  # console-script entry point


if __name__ == "__main__":
    raise SystemExit(run())

"""Command-line front end: parse, dispatch, emit CSV/JSON.

Payloads are deterministic for a fixed resolved configuration (seed
included): no timestamps are embedded, numbers serialize with 6 decimals in
CSV and full precision in JSON, and every emitted file carries the resolved
configuration so a run can be reproduced from its output.  Wall time goes to
stderr only.

Every subcommand is one entry of ``COMMANDS``: its help, its options as
(flag, type, default) and its handler.  ``build_parser`` is one loop over that
table, with the ``verify`` targets nested from ``VERIFY``.

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
    verify_bessel,
    verify_clt,
    verify_confusion_scaling,
    verify_inner_product,
    verify_rn_mac,
    verify_rn_p2p,
)
from .simlink import link, simulate_mac, verify_bounds

_SEED = ("--seed", int, None)

#: every ``verify`` target: name -> (its options as (flag, type, default), its verdict function), where
#: verdict(**options) returns the payload, ``pass`` included.  A default of ... makes an option required,
#: a list default makes it take one or more values, and a tuple in place of the type lists the choices.
VERIFY = {
    "rn-p2p": ([("--p", float, ...)], verify_rn_p2p),
    "rn-mac": ([("--p1", float, ...), ("--p2", float, ...)], verify_rn_mac),
    "bessel": ([("--k", float, None), ("--z", float, None), ("--grid", int, 0), _SEED], verify_bessel),
    "clt": (
        [("--case", ("p2p", "mac-joint"), "p2p"), ("--n", int, ...), ("--trials", int, 100_000),
         ("--p", float, 1.0), ("--p1", float, 1.0), ("--p2", float, 1.0), _SEED],
        verify_clt,
    ),
    "inner-product": (
        [("--n", int, 100), ("--p1", float, 1.0), ("--p2", float, 1.0), ("--pairs", int, 100_000), _SEED],
        verify_inner_product,
    ),
    "confusion-scaling": (
        [("--p", float, 1.0), ("--n-list", int, [400, 1600]), ("--trials", int, 1 << 17), _SEED],
        verify_confusion_scaling,
    ),
    "bounds": (
        [("--mode", ("p2p", "mac-joint", "mac-splitting"), ...), ("--n", int, ...), ("--m1", int, ...),
         ("--m2", int, 1), ("--p1-db", float, ...), ("--p2-db", float, None), ("--sim-trials", int, 20_000),
         ("--bound-trials", int, 200_000), _SEED],
        verify_bounds,
    ),
}


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
        "joint": second_order_ray(n, eps, pp, th, "joint", opts.samples, opts.seed),
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


def _cmd_simulate(args) -> int:
    seed = _resolved_seed(args)
    spec, th = link(args.mode, args.n, args.m1, args.m2, args.p1_db, args.p2_db, seed)
    res = simulate_mac(spec, th, args.trials)
    _emit_json(
        {
            "command": "simulate",
            "mode": args.mode,
            "config": {"n": spec.n, "m1": spec.m1, "m2": spec.m2, "trials": args.trials, "seed": seed},
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
    seed = _resolved_seed(args)  # FBMAC_SEED is checked on every target, seeded or not
    inputs = {k: seed if k == "seed" else v for k, v in vars(args).items() if k not in ("command", "target", "out")}
    _emit_json({"target": args.target, **VERIFY[args.target][1](**inputs)}, args.out)
    return 0


def _cmd_figure1(args) -> int:
    pp = PowerPair(db_to_linear(args.p1_db), db_to_linear(args.p2_db))
    seed = _resolved_seed(args)
    manifest = figure1_bundle(args.n, args.eps, pp, args.out_dir, args.points, args.samples, seed)
    print(json.dumps({"out_dir": args.out_dir, "files": len(manifest["files"])}), file=sys.stderr)
    return 0


def _point(n=..., eps=..., p1_db=..., p2_db=...) -> list:
    """The operating point's options, required unless given defaults."""
    return [("--n", int, n), ("--eps", float, eps), ("--p1-db", float, p1_db), ("--p2-db", float, p2_db)]


_OUT = ("--out", str, None)
_UNITS = ("--units", ("nats", "bits"), "nats")
_SIZES = [("--points", int, 256), ("--samples", int, 1 << 12)]

#: every subcommand: name -> (help, options, handler), the options in ``VERIFY``'s (flag, type, default)
#: form; a flag without dashes is positional, and a dict of target -> options nests one subparser per target.
COMMANDS = {
    "region": (
        "emit one rate-region boundary",
        [("--kind", tuple(REGIONS), ...), *_point(), _SEED, _OUT, *_SIZES, _UNITS, ("--format", ("csv", "json"), "csv"),
         ("--delta-rule", str, "zero"), ("--gallager-a", float, 1.0)],
        _cmd_region,
    ),
    "p2p": (
        "print the point-to-point second-order rate",
        [("--n", int, ...), ("--eps", float, ...), ("--p-db", float, ...), _UNITS],
        _cmd_p2p,
    ),
    "simulate": (
        "random-coding link simulation",
        [("mode", ("p2p", "mac"), ...), ("--n", int, ...), _SEED, _OUT, ("--p1-db", float, ...),
         ("--p2-db", float, None), ("--m1", int, ...), ("--m2", int, 1), ("--trials", int, ...)],
        _cmd_simulate,
    ),
    "verify": (
        "numeric verification verdicts",
        {target: [*options, _OUT] for target, (options, _) in VERIFY.items()},  # each verdict to stdout or --out
        _cmd_verify,
    ),
    "figure1": (
        "emit the full comparison bundle",
        [*_point(500, 1e-3, 0.0, 0.0), *_SIZES, _SEED, ("--out-dir", str, ...)],
        _cmd_figure1,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fbmac", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, options, _) in COMMANDS.items():
        parser = sub.add_parser(name, help=help_)
        tables = [(parser, options)]
        if isinstance(options, dict):
            targets = parser.add_subparsers(dest="target", required=True)
            tables = [(targets.add_parser(target), opts) for target, opts in options.items()]
        for p, opts in tables:
            for flag, kind, default in opts:
                kw = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
                if flag.startswith("-"):
                    kw.update({"required": True} if default is ... else {"default": default})
                p.add_argument(flag, nargs="+" if isinstance(default, list) else None, **kw)
    return ap


def run(argv=None) -> int:
    """Parse, dispatch, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        code = COMMANDS[args.command][2](args)
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

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fbmac.cli import COMMANDS, build_parser, figure1_bundle, main
from fbmac.core import PowerPair, db_to_linear
from fbmac.regions import REGIONS, RegionBoundary, RegionOptions
from fbmac.simlink import CodebookSpec, default_thresholds, shell_rn_constants


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_p2p_prints_rate(capsys):
    code, out, _ = run_cli(["p2p", "--n", "500", "--eps", "1e-3", "--p-db", "0", "--units", "bits"], capsys)
    assert code == 0
    assert out.strip() == "0.377905"


def test_p2p_at_a_power_whose_square_overflows(capsys):
    # (1 + p)^2 overflowed in the dispersion at 1600 dB and the command exited 1
    code, out, _ = run_cli(["p2p", "--n", "500", "--eps", "1e-3", "--p-db", "1600"], capsys)
    assert code == 0
    assert math.isfinite(float(out))


def test_region_csv_format(tmp_path, capsys):
    out = tmp_path / "joint.csv"
    code, _, _ = run_cli(
        [
            "region", "--kind", "joint", "--n", "500", "--eps", "1e-3",
            "--p1-db", "0", "--p2-db", "0", "--points", "16", "--samples", "1024",
            "--units", "bits", "--format", "csv", "--out", str(out), "--seed", "0",
        ],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("config" in c for c in comments)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "r1_bits,r2_bits"
    assert len(data) == 1 + 16
    r1, r2 = data[1].split(",")
    float(r1), float(r2)


def test_region_json_round_trip(tmp_path, capsys):
    out = tmp_path / "box.json"
    args = [
        "region", "--kind", "su-outer", "--n", "500", "--eps", "1e-3",
        "--p1-db", "0", "--p2-db", "0", "--format", "json", "--out", str(out),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "su-outer"
    assert payload["empty"] is False
    pts = np.array(payload["points"])
    # reserialize: float round trip is exact
    again = json.loads(json.dumps(payload))
    assert np.array(again["points"]).tolist() == pts.tolist()


def test_region_units_scale_by_ln2(tmp_path, capsys):
    outs = {}
    for units in ("nats", "bits"):
        out = tmp_path / f"box-{units}.json"
        run_cli(
            [
                "region", "--kind", "su-outer", "--n", "500", "--eps", "1e-3",
                "--p1-db", "0", "--p2-db", "0", "--format", "json", "--units", units,
                "--out", str(out),
            ],
            capsys,
        )
        outs[units] = np.array(json.loads(out.read_text())["points"])
    assert np.allclose(outs["bits"] * math.log(2.0), outs["nats"], rtol=1e-12)


def test_region_empty_gallager_json(tmp_path, capsys):
    out = tmp_path / "gal.json"
    code, _, _ = run_cli(
        [
            "region", "--kind", "gallager", "--n", "10", "--eps", "1e-9",
            "--p1-db", "0", "--p2-db", "0", "--format", "json", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["empty"] is True
    assert payload["points"] == []


def test_region_gallager_at_the_largest_n(tmp_path, capsys):
    # just below capacity an exponent rounds to about -1e-16, where e^{-n e} must not overflow
    out = tmp_path / "gal.json"
    code, _, err = run_cli(
        [
            "region", "--kind", "gallager", "--n", str(2**63 - 1), "--eps", "1e-3",
            "--p1-db", "0", "--p2-db", "0", "--points", "32", "--format", "json", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0, err
    pts = np.array(json.loads(out.read_text())["points"])
    assert pts.shape == (32, 2) and np.isfinite(pts).all() and (pts > 0).all()


@pytest.mark.parametrize(
    "p1_db, p2_db",
    [(300, 0), (-300, 0), (0, 300), (0, -300), (300, 300), (-300, -300), (1600, 0), (0, 1600), (1600, 1600),
     (3000, 3000)],
)
@pytest.mark.parametrize("kind", list(REGIONS))
def test_region_at_extreme_snrs_never_exits_1(kind, p1_db, p2_db, tmp_path, capsys):
    # the Gallager exponents took log(s - alpha) after cancellation at 100 dB and divided by
    # p (e^{2R} - 1) rounded to 0 at -155 dB, so the command exited 1.  Past about 1541 dB, where
    # (1 + p)^2 overflows, joint, sumshell and splitting exited 1 (OverflowError), gallager exited 1
    # (math domain error), iid exited 2 only because its NaN matrix failed a symmetry check, and tdma
    # exited 0 with a curve its NaN scales had steered; those six now refuse the power by name
    out = tmp_path / "r.json"
    code, _, err = run_cli(
        [
            "region", "--kind", kind, "--n", "500", "--eps", "1e-3", "--p1-db", str(p1_db),
            "--p2-db", str(p2_db), "--points", "8", "--samples", "1024", "--format", "json", "--out", str(out),
        ],
        capsys,
    )
    assert code in (0, 2), err
    top_db = max(p1_db, p2_db)
    if top_db > 1541 and kind not in ("su-outer", "conjectured-sum-outer", "pentagon"):
        assert code == 2 and "too large" in err and f"e+{top_db // 10}" in err, err
    elif top_db > 1541 or kind == "gallager":
        assert code == 0, err
        pts = np.array(json.loads(out.read_text())["points"]).reshape(-1, 2)
        assert np.isfinite(pts).all() and (pts >= 0.0).all()
    if kind == "gallager" and code == 0:
        pp = PowerPair(10.0 ** (p1_db / 10.0), 10.0 ** (p2_db / 10.0))
        caps = [0.5 * math.log1p(p) for p in (pp.p1, pp.p2, pp.p_sum)]
        assert (pts <= np.array(caps[:2]) * (1.0 + 1e-12)).all()
        assert (pts.sum(axis=1) <= caps[2] * (1.0 + 1e-12)).all()


@pytest.mark.parametrize("p1_db, p2_db", [(300, 0), (0, 300)])
def test_region_iid_with_collinear_leading_coordinates(p1_db, p2_db, tmp_path, capsys):
    # at 1e30 against 1 the i.i.d. matrix's strong-user and sum coordinates are collinear (rank 2), and
    # the command exited 2 while the integrator refused their singular leading block.  The weak user
    # reaches its own i.i.d. point-to-point rate, C(1) - sqrt(0.5 / n) Qinv(eps)
    out = tmp_path / "iid.json"
    code, _, err = run_cli(
        [
            "region", "--kind", "iid", "--n", "500", "--eps", "1e-3", "--p1-db", str(p1_db),
            "--p2-db", str(p2_db), "--format", "json", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0, err
    pts = np.array(json.loads(out.read_text())["points"])
    assert pts.shape == (256, 2) and np.isfinite(pts).all() and (pts >= 0.0).all()
    assert (np.diff(pts[:, 0]) >= 0.0).all() and (np.diff(pts[:, 1]) <= 0.0).all()
    weak = pts[:, 1 if p1_db else 0].max()
    assert weak == pytest.approx(0.5 * math.log(2.0) - math.sqrt(0.5 / 500) * 3.090232306167813, abs=1e-8)


def test_byte_identical_rerun(tmp_path, capsys):
    args = [
        "region", "--kind", "splitting", "--n", "500", "--eps", "1e-3",
        "--p1-db", "0", "--p2-db", "0", "--points", "32", "--seed", "5",
        "--format", "csv",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(args + ["--out", str(a)], capsys)
    run_cli(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_verify_rn_p2p(capsys):
    code, out, _ = run_cli(["verify", "rn-p2p", "--p", "1"], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["pass"] is True
    assert verdict["max"] < 1e-9
    assert verdict["argmax"] == pytest.approx(2.0, rel=1e-6)


def test_verify_rn_mac(capsys):
    code, out, _ = run_cli(["verify", "rn-mac", "--p1", "1", "--p2", "3"], capsys)
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True
    assert verdict["argmax"] == pytest.approx(4.0, rel=1e-6)


def test_verify_bessel(capsys):
    code, out, _ = run_cli(["verify", "bessel", "--k", "2", "--z", "1"], capsys)
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True
    code, out, _ = run_cli(["verify", "bessel", "--grid", "6", "--seed", "3"], capsys)
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True
    # a verdict at the largest z rests on finite logs, not on an overflow to -inf
    for k, z in (("0", "1e308"), ("20", "1e160"), ("20", "1e308")):
        code, out, _ = run_cli(["verify", "bessel", "--k", k, "--z", z], capsys)
        verdict = json.loads(out)
        assert code == 0 and math.isfinite(verdict["log_lhs"]) and math.isfinite(verdict["log_rhs"])


def test_verify_bessel_grid_over_budget_exits_2(capsys):
    # refused before any check runs: the largest grid is computed, never run
    import math

    from fbmac.shellmc import _BESSEL_GRID_CALLS

    top = math.isqrt(_BESSEL_GRID_CALLS)
    for grid in (top + 1, 10**9, -1):
        code, _, err = run_cli(["verify", "bessel", "--grid", str(grid)], capsys)
        assert code == 2 and f"at most {_BESSEL_GRID_CALLS}" in err


def test_size_knobs_over_budget_exit_2_at_once(capsys, tmp_path):
    # each knob is refused by its computed budget before any lattice, ray or draw is made; these
    # ran for minutes or ended in an out-of-memory traceback (exit 1) before
    import time

    point = ["--n", "500", "--eps", "1e-3", "--p1-db", "0", "--p2-db", "0"]
    for argv in (
        ["region", "--kind", "gallager", *point, "--points", "10000000"],
        ["region", "--kind", "tdma", *point, "--points", "10000000"],
        ["region", "--kind", "joint", *point, "--samples", "100000000"],
        ["figure1", "--points", "10000000", "--out-dir", str(tmp_path / "f1")],
        ["figure1", "--samples", "100000000", "--out-dir", str(tmp_path / "f1")],
    ):
        start = time.monotonic()
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and "invalid" in err, argv
        assert time.monotonic() - start < 1.0, argv
    assert not (tmp_path / "f1").exists()


def test_monte_carlo_count_knobs_over_budget_exit_2_at_once(capsys):
    # one past the chunk budget, each count knob is refused before any draw; the chunk list alone of
    # a 2^36-draw run took 100 MB
    import time

    from fbmac._rng import _MAX_CHUNKS
    from fbmac.shellmc import _CHUNK
    from fbmac.simlink import _sim_chunk

    draws = str(_CHUNK * _MAX_CHUNKS + 1)
    link = ["--n", "100", "--m1", "8", "--m2", "8", "--p1-db", "-10", "--p2-db", "-10"]
    sim = str(_sim_chunk(100, 8, 8) * _MAX_CHUNKS + 1)
    for argv in (
        ["verify", "clt", "--n", "1024", "--trials", draws],
        ["verify", "clt", "--case", "mac-joint", "--n", "1024", "--trials", draws],
        ["verify", "inner-product", "--n", "100", "--pairs", draws],
        ["verify", "confusion-scaling", "--trials", draws],
        # each of the two runs is within the budget, the list is not
        ["verify", "confusion-scaling", "--n-list", "400", "1600", "--trials", str(_CHUNK * _MAX_CHUNKS // 2 + 1)],
        ["verify", "bounds", "--mode", "mac-joint", *link, "--bound-trials", draws],
        ["verify", "bounds", "--mode", "mac-joint", *link, "--bound-trials", "1000", "--sim-trials", sim],
        ["simulate", "mac", *link, "--trials", sim],
    ):
        start = time.monotonic()
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and f"make more than {_MAX_CHUNKS} chunks" in err, argv
        assert time.monotonic() - start < 1.0, argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_bounds_refuses_an_over_budget_codebook_before_any_draw(capsys, monkeypatch):
    # the bound ran its 200 000 trials first, and warned on its overflowing weight, before the simulation's
    # budget refused the 10^160-codeword books
    from fbmac import shellmc

    drawn = []
    monkeypatch.setattr(shellmc, "substream", lambda *args: drawn.append(args))
    big = str(10**160)
    link = ["--n", "100", "--m1", big, "--m2", big, "--p1-db", "0", "--p2-db", "0"]
    code, out, err = run_cli(["verify", "bounds", "--mode", "mac-joint", *link], capsys)
    assert (code, out, drawn) == (2, "", [])
    assert "budget" in err


def test_confusion_scaling_refuses_a_small_n_anywhere_before_any_draw(capsys, monkeypatch):
    from fbmac import shellmc

    drawn = []
    monkeypatch.setattr(shellmc, "substream", lambda *args: drawn.append(args))
    code, out, err = run_cli(["verify", "confusion-scaling", "--n-list", "400", "1600", "1"], capsys)
    assert (code, out, drawn) == (2, "", [])
    assert "n >= 2" in err


def test_confusion_scaling_refuses_equal_first_and_last_n_before_any_draw(capsys, monkeypatch):
    # the verdict compares the first n's value with the last's: with one n the ratio 1 met the predicted
    # sqrt(1) = 1 and printed a pass that judged nothing
    from fbmac import shellmc

    drawn = []
    monkeypatch.setattr(shellmc, "substream", lambda *args: drawn.append(args))
    for n_list in (["400"], ["400", "400"], ["400", "1600", "400"]):
        code, out, err = run_cli(["verify", "confusion-scaling", "--n-list", *n_list], capsys)
        assert (code, out, drawn) == (2, "", []), n_list
        assert "a first and a last n that differ" in err


def test_verify_inner_product(capsys):
    code, out, _ = run_cli(
        ["verify", "inner-product", "--n", "100", "--pairs", "40000", "--seed", "1"], capsys
    )
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True


def test_verify_bounds_p2p(capsys):
    code, out, _ = run_cli(
        [
            "verify", "bounds", "--mode", "p2p", "--n", "100", "--m1", "4",
            "--p1-db", "-12", "--sim-trials", "4000", "--bound-trials", "40000",
            "--seed", "2",
        ],
        capsys,
    )
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True


def test_simulate_json(capsys):
    code, out, _ = run_cli(
        [
            "simulate", "p2p", "--n", "50", "--m1", "4", "--p1-db", "0",
            "--trials", "2000", "--seed", "3",
        ],
        capsys,
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["trials"] == 2000
    assert 0.0 <= payload["eps_hat"] <= 1.0


@pytest.mark.parametrize("mode", ["p2p", "mac-joint"])
def test_simulate_is_the_simulation_half_of_verify_bounds(mode, capsys):
    # both commands take their codebooks, thresholds and simulator from one rule, so they cannot drift apart
    link = ["--n", "40", "--m1", "8", "--p1-db", "-3", "--seed", "7"]
    spec = CodebookSpec(n=40, m1=8, p1=db_to_linear(-3.0))
    if mode != "p2p":
        link += ["--m2", "4", "--p2-db", "-6"]
        spec = CodebookSpec(n=40, m1=8, m2=4, p1=spec.p1, p2=db_to_linear(-6.0))
    code, out, _ = run_cli(["simulate", mode.removesuffix("-joint"), *link, "--trials", "3000"], capsys)
    simulated = _strict_json(out)
    code2, out, _ = run_cli(
        ["verify", "bounds", "--mode", mode, *link, "--sim-trials", "3000", "--bound-trials", "1000"], capsys
    )
    assert code == code2 == 0
    assert 0.0 < simulated["eps_hat"] == _strict_json(out)["eps_hat"] < 1.0
    k = (1.0, 1.0, 1.0) if mode == "p2p" else shell_rn_constants(PowerPair(spec.p1, spec.p2))
    th = default_thresholds(spec, *k)
    want = [None if g == -math.inf else g for g in (th.log_gamma1, th.log_gamma2, th.log_gamma3)]
    assert simulated["thresholds"] == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("db, code", [(1560.0, 0), (3060.0, 2), (3070.0, 2)])
def test_link_powers_past_the_double_range_exit_2(db, code, capsys):
    # the decoder's largest squared residual, about 4 n (sqrt p1 + sqrt p2)^2, overflows: at 3070 dB the
    # simulators read eps_hat 1.0 with overflow warnings and ``verify bounds`` an outage of 0.4535, at
    # 3060 dB ``simulate p2p`` warned "invalid value", and every one of them exited 0
    link = ["--n", "100", "--m1", "8", "--p1-db", str(db)]
    mac = [*link, "--m2", "8", "--p2-db", str(db)]
    for argv in (["simulate", "p2p", *link, "--trials", "2000"], ["simulate", "mac", *mac, "--trials", "2000"],
                 ["verify", "bounds", "--mode", "p2p", *link, "--sim-trials", "2000", "--bound-trials", "1000"],
                 ["verify", "bounds", "--mode", "mac-joint", *mac, "--sim-trials", "2000", "--bound-trials", "1000"]):
        got, out, err = run_cli(argv, capsys)
        assert got == code, argv
        if code:
            assert out == "" and "overflows" in err, argv
        else:
            assert _strict_json(out)["eps_hat"] == 0.0, argv


def _strict_json(text):
    """``json.loads`` that refuses NaN and +-Infinity, which RFC 8259 does not allow."""

    def refuse(name):
        raise ValueError(f"{name} in a payload")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "p2p", "--n", "1000000", "--m1", "8", "--p1-db", "-60", "--trials", "2000"],
        ["simulate", "mac", "--n", "100", "--m1", "1", "--m2", "8", "--p1-db", "0", "--p2-db", "0",
         "--trials", "1000"],
        ["verify", "rn-p2p", "--p", "1"],
        ["verify", "rn-mac", "--p1", "1", "--p2", "3"],
        ["verify", "bessel", "--k", "2", "--z", "1"],
        ["verify", "clt", "--case", "mac-joint", "--n", "64", "--trials", "1000"],
        ["verify", "inner-product", "--pairs", "1000"],
        ["verify", "confusion-scaling", "--trials", "2000"],
        ["verify", "bounds", "--mode", "p2p", "--n", "20", "--m1", "4", "--p1-db", "0",
         "--sim-trials", "1000", "--bound-trials", "1000"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_payloads_are_strict_json(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = _strict_json(out)
    if argv[0] == "simulate":  # a one-codeword book has no test: its threshold is null, not -Infinity
        tested = [True, False, False] if argv[1] == "p2p" else [False, True, False]
        assert [g is not None for g in payload["thresholds"]] == tested


@pytest.mark.parametrize(
    "argv, named",
    [
        (["clt", "--n", "16", "--trials", "1000", "--p", "-1"], "p must be finite and > 0"),
        (["clt", "--n", "16", "--trials", "1000", "--p", "0"], "p must be finite and > 0"),
        (["clt", "--case", "mac-joint", "--n", "16", "--trials", "1000", "--p1", "1e300", "--p2", "1"],
         "p1 + p2 = 1e+300 is too large"),
        (["clt", "--case", "mac-joint", "--n", "16", "--trials", "1000", "--p1", "1e-300", "--p2", "1e-300"],
         "p1 + p2 = 2e-300 is too small"),
        (["confusion-scaling", "--p", "0", "--trials", "2000"], "p must be finite and > 0"),
        (["confusion-scaling", "--p", "1e300", "--trials", "2000"], "p = 1e+300 is too large"),
        (["inner-product", "--p1", "1e300", "--p2", "1e300", "--pairs", "1000"], "p1 = 1e+300, p2 = 1e+300"),
        (["inner-product", "--p1", "1e-300", "--p2", "1e-300", "--pairs", "1000"], "p1 = 1e-300, p2 = 1e-300"),
        (["bessel", "--k", "1e308", "--z", "1"], "k = 1e+308 is too large"),
        (["bessel", "--k", "1e300", "--z", "1e-300"], "k = 1e+300 is too large for z = 1e-300"),
        (["rn-mac", "--p1", "1e-300", "--p2", "1"], "p1 / p2 = 1e-300 is too extreme"),
    ],
)
def test_out_of_domain_powers_and_orders_exit_2(argv, named, capsys):
    # each of these once ended in a traceback, a NaN or +-Infinity in the payload, or a pass on -inf logs
    code, out, err = run_cli(["verify", *argv], capsys)
    assert (code, out) == (2, "")
    assert "invalid arguments" in err and named in err


#: each command's arguments inside its domain, then one or more sets outside it; ``verify`` holds one such
#: tuple per target.  figure1 writes into the test's working directory
_COMMAND_ARGS = {
    "region": (
        ["--kind", "joint", "--n", "500", "--eps", "1e-3", "--p1-db", "0", "--p2-db", "0", "--points", "8"],
        ["--kind", "joint", "--n", "500", "--eps", "2.0", "--p1-db", "0", "--p2-db", "0", "--points", "8"],
    ),
    "p2p": (["--n", "500", "--eps", "1e-3", "--p-db", "0"], ["--n", "500", "--eps", "1e-3", "--p-db", "4000"]),
    "simulate": (
        ["mac", "--n", "30", "--m1", "2", "--m2", "2", "--p1-db", "0", "--p2-db", "0", "--trials", "1000"],
        ["p2p", "--n", "20", "--m1", "4", "--p1-db", "nan", "--trials", "10"],
    ),
    "verify": {
        "rn-p2p": (["--p", "2"], ["--p", "-1"]),
        "rn-mac": (["--p1", "2", "--p2", "0.5"], ["--p1", "0", "--p2", "1"]),
        "bessel": (["--k", "3", "--z", "40"], ["--k", "nan", "--z", "1"]),
        "clt": (["--n", "64", "--trials", "2000"], ["--n", "8", "--trials", "2000"]),
        "inner-product": (["--pairs", "2000"], ["--pairs", "1"]),
        "confusion-scaling": (["--n-list", "100", "400", "--trials", "2000"], ["--n-list", "400"]),
        "bounds": (
            ["--mode", "mac-splitting", "--n", "30", "--m1", "2", "--m2", "2", "--p1-db", "0", "--p2-db", "0",
             "--sim-trials", "1000", "--bound-trials", "1000"],
            ["--mode", "mac-joint", "--n", "30", "--m1", "2", "--p1-db", "0"],  # a MAC with no second power
            # ln M = 714 nats: the float weight (M - 1)/2 overflowed (exit 1), now the trial budget refuses it
            ["--mode", "p2p", "--n", "2000", "--m1", str(10**310), "--p1-db", "0"],
        ),
    },
    "figure1": (
        ["--points", "8", "--samples", "1024", "--out-dir", "bundle"],
        ["--eps", "2.0", "--points", "8", "--samples", "1024", "--out-dir", "bundle"],
    ),
}


def _csv_boundary(out, target):
    lines = out.splitlines()
    assert lines[0].startswith("# fbmac ") and json.loads(lines[1].removeprefix("# config: "))
    assert lines[2] == "r1_nats,r2_nats"
    points = np.array([[float(v) for v in row.split(",")] for row in lines[3:]])
    assert points.shape == (8, 2) and np.isfinite(points).all()


def _rate(out, target):
    assert out == f"{float(out):.6f}\n" and math.isfinite(float(out))


def _simulation(out, target):
    assert 0.0 <= _strict_json(out)["eps_hat"] <= 1.0


def _verdict(out, target):
    payload = _strict_json(out)
    assert isinstance(payload["pass"], bool) and payload["target"] == target


def _bundle(out, target):
    assert out == "" and sorted(os.listdir("bundle")) == sorted([*(f for f, _ in REGIONS.values()), "manifest.json"])


#: the output form of each command's in-domain run
_OUTPUT = {"region": _csv_boundary, "p2p": _rate, "simulate": _simulation, "verify": _verdict, "figure1": _bundle}


#: every (command, verify target or None) pair that the parser builds
_CASES = [
    (name, target)
    for name, (_, options, _) in COMMANDS.items()
    for target in (options if isinstance(options, dict) else [None])
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, target", _CASES, ids=["-".join(filter(None, case)) for case in _CASES])
def test_every_command_exits_0_with_its_output_or_2(command, target, capsys, tmp_path, monkeypatch):
    # a command or verify target added to the table without arguments here fails its own case
    monkeypatch.chdir(tmp_path)
    inside, *outside = _COMMAND_ARGS[command][target] if target else _COMMAND_ARGS[command]
    prefix = [command, target] if target else [command]
    for argv in outside:
        code, out, err = run_cli([*prefix, *argv], capsys)  # an exception fails the test
        assert (code, out) == (2, "") and "invalid arguments" in err and "Traceback" not in err, (argv, err)
        assert not any(tmp_path.iterdir()), argv  # a refused run writes no file either
    code, out, err = run_cli([*prefix, *inside], capsys)
    assert code == 0 and "Traceback" not in err, (inside, err)
    _OUTPUT[command](out, target)


def test_usage_errors_exit_2(capsys, monkeypatch, tmp_path):
    assert run_cli(["region", "--kind", "bogus"], capsys)[0] == 2
    assert run_cli(["nonsense"], capsys)[0] == 2
    # the splitting curve is exact on each ray: there is no lambda grid to set
    point = ["--n", "500", "--eps", "1e-3", "--p1-db", "0", "--p2-db", "0"]
    assert run_cli(["region", "--kind", "splitting", *point, "--lambda-grid", "64"], capsys)[0] == 2
    # one draw has no standard error: refused, not a NaN payload
    assert run_cli(["verify", "confusion-scaling", "--trials", "1"], capsys)[0] == 2
    # a variance needs two pairs: refused, not a NaN payload
    for pairs in ("1", "0"):
        assert run_cli(["verify", "inner-product", "--pairs", pairs], capsys)[0] == 2
    # a delta rule that is neither a name nor a number
    code, _, err = run_cli(
        [
            "region", "--kind", "iid", "--n", "500", "--eps", "1e-3", "--p1-db", "0", "--p2-db", "0",
            "--points", "8", "--delta-rule", "bogus",
        ],
        capsys,
    )
    assert code == 2 and "delta rule" in err
    # an SNR in dB whose linear value overflows a float
    assert run_cli(["p2p", "--n", "500", "--eps", "1e-3", "--p-db", "4000"], capsys)[0] == 2
    code, _, err = run_cli(
        ["region", "--kind", "joint", "--n", "500", "--eps", "1e-3", "--p1-db", "4000", "--p2-db", "0"], capsys
    )
    assert code == 2 and "invalid" in err
    # eps outside (0,1) is a domain error -> usage exit code
    code, _, err = run_cli(
        ["region", "--kind", "joint", "--n", "500", "--eps", "2.0", "--p1-db", "0", "--p2-db", "0"],
        capsys,
    )
    assert code == 2
    assert "invalid" in err
    # NaN and +-inf never pass a positivity check
    point = ["--n", "500", "--eps", "1e-3", "--p1-db", "0", "--p2-db", "0", "--points", "8"]
    mac = ["simulate", "mac", "--n", "20", "--m1", "4", "--m2", "4", "--p1-db", "0", "--p2-db", "0"]
    mac += ["--trials", "10"]
    # the threshold constants are not options: simulate takes them from simlink.link, as verify bounds does
    assert run_cli(mac, capsys)[0] == 0
    code, out, err = run_cli(mac + ["--k3", "1"], capsys)
    assert (code, out) == (2, "") and "unrecognized arguments: --k3 1" in err
    refused = [
        ["simulate", "p2p", "--n", "20", "--m1", "4", "--p1-db", "nan", "--trials", "10"],
        ["simulate", "p2p", "--n", "20", "--m1", "4", "--p1-db", "inf", "--trials", "10"],
        ["region", "--kind", "gallager", *point, "--gallager-a", "nan"],
        ["region", "--kind", "gallager", *point, "--gallager-a", "inf"],
        ["verify", "rn-p2p", "--p", "nan"],
        ["verify", "rn-p2p", "--p", "inf"],
        ["verify", "rn-p2p", "--p", "1e308"],
        ["verify", "rn-mac", "--p1", "1e300", "--p2", "1e300"],
        ["verify", "bessel", "--k", "inf", "--z", "1"],
        ["verify", "bessel", "--k", "2", "--z", "inf"],
        ["verify", "bessel", "--k", "nan", "--z", "1"],
        # a negative seed on every seeded command
        ["region", "--kind", "joint", *point, "--seed", "-1"],
        ["simulate", "p2p", "--n", "20", "--m1", "4", "--p1-db", "0", "--trials", "10", "--seed", "-1"],
        ["verify", "bessel", "--grid", "2", "--seed", "-1"],
        ["verify", "clt", "--n", "64", "--trials", "1000", "--seed", "-1"],
        ["verify", "inner-product", "--pairs", "100", "--seed", "-1"],
        ["verify", "confusion-scaling", "--trials", "100", "--seed", "-1"],
        ["verify", "bounds", "--mode", "p2p", "--n", "20", "--m1", "4", "--p1-db", "0", "--seed", "-1"],
        ["figure1", "--points", "8", "--seed", "-1", "--out-dir", str(tmp_path / "f1")],
        # a sample statistic needs enough draws: no zero-size array, no NaN payload
        ["verify", "clt", "--n", "64", "--trials", "0"],
        ["verify", "clt", "--case", "mac-joint", "--n", "64", "--trials", "1"],
        ["verify", "clt", "--n", "16", "--trials", "2"],
        ["verify", "clt", "--case", "mac-joint", "--n", "16", "--trials", "2"],
        ["verify", "inner-product", "--n", "1", "--pairs", "100"],
    ]
    for argv in refused:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "invalid" in err, argv
        if argv[:2] == ["verify", "bessel"] and argv[3] in ("nan", "inf"):  # named by its domain, not as too large
            assert "k must be finite and >= 0" in err, argv
    assert not (tmp_path / "f1").exists()
    monkeypatch.setenv("FBMAC_SEED", "abc")
    code, _, err = run_cli(["verify", "inner-product", "--pairs", "100"], capsys)
    assert code == 2 and "FBMAC_SEED" in err
    monkeypatch.setenv("FBMAC_SEED", "-1")
    assert run_cli(["verify", "inner-product", "--pairs", "100"], capsys)[0] == 2
    monkeypatch.delenv("FBMAC_SEED")
    monkeypatch.setenv("FBMAC_THREADS", "abc")
    code, out, err = run_cli(["region", "--kind", "joint", *point], capsys)
    assert (code, out) == (2, "") and "FBMAC_THREADS" in err


def test_figure1_bundle(tmp_path, capsys):
    out_dir = tmp_path / "f1"
    code, _, _ = run_cli(
        [
            "figure1", "--n", "500", "--eps", "1e-3", "--p1-db", "0", "--p2-db", "0",
            "--points", "16", "--samples", "1024", "--seed", "0",
            "--out-dir", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["files"]) == 9
    for entry in manifest["files"]:
        path = out_dir / entry["name"]
        assert path.exists()
        rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(rows) - 1 == entry["rows"]  # header + data rows
    assert manifest["nesting"]["ok"] is True


@pytest.fixture(scope="module")
def bundle16(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("f1_16")
    figure1_bundle(500, 1e-3, PowerPair(1.0, 1.0), out_dir, points=16, samples=1024, seed=0)
    return out_dir


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


_RAY_RELATIONS = ["achievable_in_su_box", "gallager_le_joint", "iid_le_joint", "joint_lt_sumshell", "splitting_le_joint"]


def test_nesting_booleans_agree_with_slacks(bundle16):
    nesting = _manifest(bundle16)["nesting"]
    tol = 2e-3
    rays = nesting["rays"]
    flags = {k: v for k, v in rays.items() if isinstance(v, bool)}
    assert sorted(flags) == _RAY_RELATIONS
    for name, flag in flags.items():
        slack = rays[f"{name}_slack"]
        assert math.isfinite(slack)
        assert 0.0 < rays[f"{name}_theta"] < math.pi / 2
        assert flag is (slack > -tol if "_lt_" in name else slack >= -tol), name
    sym = nesting["symmetric"]
    slacks = {k[: -len("_slack")]: v for k, v in sym.items() if k.endswith("_slack")}
    assert sorted(slacks) == ["iid_lt_splitting", "joint_lt_sumshell", "splitting_le_joint", "tdma_lt_iid"]
    assert slacks["tdma_lt_iid"] == sym["iid"] - sym["tdma"]
    assert slacks["splitting_le_joint"] == sym["joint"] - sym["splitting"]
    expect = all(s > -tol if "_lt_" in name else s >= -tol for name, s in slacks.items())
    assert sym["ordering_ok"] is expect
    # ok aggregates the booleans only: the angles and the slacks are numbers
    assert nesting["ok"] is (all(flags.values()) and sym["ordering_ok"])


def test_manifest_judges_the_shipped_curves(bundle16):
    # each relation's worst slack is the one the CSVs on disk show, at the angle the manifest names
    rays = _manifest(bundle16)["nesting"]["rays"]

    def curve(name):  # nats, in the r1-ascending order of the file
        rows = (bundle16 / name).read_text().splitlines()[3:]
        return np.array([ln.split(",") for ln in rows], dtype=float).reshape(-1, 2) * math.log(2.0)

    thetas = (np.arange(16) + 0.5) / 16 * (math.pi / 2)
    r = {}
    for kind in ("joint", "iid", "sumshell", "splitting", "gallager"):
        pts = curve(f"{kind}.csv")[::-1]
        assert len(pts) in (0, 16)  # one point per ray, or none for an empty gallager region
        r[kind] = np.hypot(pts[:, 0], pts[:, 1]) if len(pts) else np.zeros(16)
    b1, b2 = curve("su_outer.csv")[1]
    box = np.minimum(b1 / np.cos(thetas), b2 / np.sin(thetas))
    slack = {
        "iid_le_joint": r["joint"] - r["iid"],
        "splitting_le_joint": r["joint"] - r["splitting"],
        "joint_lt_sumshell": r["sumshell"] - r["joint"],
        "gallager_le_joint": r["joint"] - r["gallager"],
        "achievable_in_su_box": box - np.max([r["joint"], r["splitting"], r["iid"]], axis=0),
    }
    assert sorted(slack) == _RAY_RELATIONS
    tol = 2e-6  # six decimals of bits on two radii
    for name, s in slack.items():
        at = int(np.argmin(np.abs(thetas - rays[f"{name}_theta"])))
        assert thetas[at] == pytest.approx(rays[f"{name}_theta"], abs=1e-12), name
        assert s[at] == pytest.approx(rays[f"{name}_slack"], abs=tol), name
        assert s.min() >= rays[f"{name}_slack"] - tol, name


def test_region_table_is_the_single_source(bundle16):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    region = sub.choices["region"]
    kind_action = next(a for a in region._actions if a.dest == "kind")
    assert list(kind_action.choices) == list(REGIONS)
    files = _manifest(bundle16)["files"]
    assert [f["kind"] for f in files] == list(REGIONS)
    assert [f["name"] for f in files] == [fname for fname, _ in REGIONS.values()]
    opts = RegionOptions(points=8, samples=1024, seed=0)
    for kind, (_, build) in REGIONS.items():
        rb = build(500, 1e-3, PowerPair(1.0, 1.0), opts)
        assert isinstance(rb, RegionBoundary) and rb.kind == kind


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fbmac", "p2p", "--n", "500", "--eps", "1e-3", "--p-db", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"{0.377905 * math.log(2.0):.6f}"


def test_rerun_from_embedded_config(tmp_path, capsys):
    # every payload embeds its resolved config; replaying it reproduces bytes
    first = tmp_path / "first.csv"
    run_cli(
        [
            "region", "--kind", "splitting", "--n", "400", "--eps", "2e-3",
            "--p1-db", "1.5", "--p2-db", "-2", "--points", "24", "--seed", "9",
            "--out", str(first),
        ],
        capsys,
    )
    cfg_line = next(ln for ln in first.read_text().splitlines() if ln.startswith("# config:"))
    cfg = json.loads(cfg_line.split("# config:", 1)[1])
    second = tmp_path / "second.csv"
    replay = [
        "region", "--kind", cfg["kind"], "--n", str(cfg["n"]), "--eps", str(cfg["eps"]),
        "--p1-db", str(cfg["p1_db"]), "--p2-db", str(cfg["p2_db"]),
        "--points", str(cfg["points"]), "--samples", str(cfg["samples"]),
        "--seed", str(cfg["seed"]), "--units", cfg["units"], "--format", cfg["format"],
        "--delta-rule", cfg["delta_rule"], "--gallager-a", str(cfg["gallager_a"]),
        "--out", str(second),
    ]
    run_cli(replay, capsys)
    assert first.read_bytes() == second.read_bytes()


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FBMAC_SEED", "123")
    out = tmp_path / "box.json"
    run_cli(
        ["region", "--kind", "su-outer", "--n", "100", "--eps", "0.01",
         "--p1-db", "0", "--p2-db", "0", "--format", "json", "--out", str(out)],
        capsys,
    )
    assert json.loads(out.read_text())["config"]["seed"] == 123


def test_verify_clt_cli(capsys):
    code, out, _ = run_cli(
        ["verify", "clt", "--case", "mac-joint", "--n", "1024", "--trials", "20000", "--seed", "4"],
        capsys,
    )
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True
    assert verdict["cov_rel_err"] is not None


def test_verify_confusion_scaling_cli(capsys):
    code, out, _ = run_cli(
        ["verify", "confusion-scaling", "--p", "1", "--n-list", "400", "1600",
         "--trials", "32768", "--seed", "5"],
        capsys,
    )
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True


def test_verify_bounds_mac_cli(capsys):
    code, out, _ = run_cli(
        [
            "verify", "bounds", "--mode", "mac-splitting", "--n", "80", "--m1", "4", "--m2", "4",
            "--p1-db", "-10", "--p2-db", "-10", "--sim-trials", "4000",
            "--bound-trials", "40000", "--seed", "6",
        ],
        capsys,
    )
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True
    # the margin is built from the two standard errors the verdict prints
    assert verdict["sim_std_err"] > 0 and verdict["bound_std_err"] > 0
    assert verdict["margin"] == 2.0 * math.hypot(verdict["sim_std_err"], verdict["bound_std_err"])

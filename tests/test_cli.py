import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernwave.cli import main

ENVELOPE_KEYS = {"command", "parameters", "results", "provenance", "tolerances", "wall_time_ms"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_mask_haar_contract(capsys):
    code, env = run_json(capsys, ["mask", "--family", "daubechies", "--m", "1"])
    assert code == 0
    assert set(env) == ENVELOPE_KEYS
    assert [r["coefficient"] for r in env["results"]] == [0.5, 0.5]


def test_mask_daub_wavelet_alternates(capsys):
    code, env = run_json(capsys, ["mask", "--family", "daubechies", "--m", "2", "--part", "psi"])
    assert code == 0
    g = [r["coefficient"] for r in env["results"]]
    code, env = run_json(capsys, ["mask", "--family", "daubechies", "--m", "2"])
    h = [r["coefficient"] for r in env["results"]]
    assert g == [h[3], -h[2], h[1], -h[0]]


def test_mask_spline_phi_binomial(capsys):
    code, env = run_json(capsys, ["mask", "--family", "spline", "--m", "2"])
    assert code == 0
    assert [r["coefficient"] for r in env["results"]] == [0.5, 1.0, 0.5]


def test_mask_spline_psi_exact_column(capsys):
    code, env = run_json(capsys, ["mask", "--family", "spline", "--m", "2", "--part", "psi"])
    assert code == 0
    assert [r["exact"] for r in env["results"]] == ["1/12", "-1/3", "1/12"]


def test_constants_favard(capsys):
    code, env = run_json(capsys, ["constants", "--set", "favard", "--j-max", "3"])
    assert code == 0
    vals = {r["name"]: r["value"] for r in env["results"]}
    assert vals["K_0"] == 1.0
    assert vals["K_1"] == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert vals["K_3"] == pytest.approx(math.pi ** 3 / 24.0, rel=1e-14)


def test_constants_favard_past_overflow_is_strict_json(capsys):
    # even K_j for j >= 512 once printed as Infinity, then NaN
    code = main(["constants", "--set", "favard", "--j-max", "514"])
    env = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0
    vals = {r["name"]: r["value"] for r in env["results"]}
    assert len(vals) == 515
    assert vals["K_512"] == vals["K_514"] == pytest.approx(4.0 / math.pi, rel=1e-15)


def test_constants_all_contains_both_sets(capsys):
    code, env = run_json(capsys, ["constants"])
    names = {r["name"] for r in env["results"]}
    assert {"xi1", "lam2", "Lam2", "K_0", "K_10", "fixed_k_ratio"} <= names


def test_ckp_envelope_matches_library(capsys):
    from bernwave.norms import ckp

    code, env = run_json(capsys, [
        "ckp", "--family", "spline", "--part", "psi", "--m", "4", "--k", "1",
        "--p", "2", "--tol", "1e-7",
    ])
    assert code == 0
    row = env["results"][0]
    direct = ckp("spline", "psi", 4, 1, 2.0, tol=1e-7)
    assert row["ratio"] == pytest.approx(direct.ratio, rel=1e-9)
    assert row["certified_rel_error"] <= 1e-7
    assert env["tolerances"] == {"tol": 1e-7}


def test_ckp_rejects_bad_k(capsys):
    assert main(["ckp", "--family", "spline", "--part", "psi", "--m", "3", "--k", "5"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_csv_is_bare_table(capsys):
    code = main(["constants", "--set", "favard", "--j-max", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,value"
    assert len(lines) == 4


def test_json_deterministic_modulo_wall_time(capsys):
    argv = ["sharpness", "--m", "3", "--j-list", "4,8"]
    _, env1 = run_json(capsys, argv)
    _, env2 = run_json(capsys, argv)
    env1.pop("wall_time_ms"), env2.pop("wall_time_ms")
    assert env1 == env2


def test_sharpness_floor_column(capsys):
    code, env = run_json(capsys, ["sharpness", "--m", "2"])
    assert code == 0
    rows = env["results"]
    assert [r["j"] for r in rows] == [4, 8, 16, 32, 64]
    # fejer_extremal_ratio(2, 64) over the p = 2 constant 2 sqrt(3)
    assert rows[-1]["floor"] == pytest.approx(3.424510582152248 / (2.0 * math.sqrt(3.0)), rel=1e-10)
    assert rows[-1]["floor"] < 1.0
    assert all(b["ratio"] > a["ratio"] for a, b in zip(rows, rows[1:]))


def test_sharpness_scan_reports_violations(capsys):
    code, env = run_json(capsys, ["sharpness", "--scan"])
    assert code == 0
    assert env["parameters"]["n_checks"] == 45000
    assert env["parameters"]["n_violations"] == 0
    assert env["results"] == []


def test_sweep_rows_carry_summary(capsys):
    code, env = run_json(capsys, [
        "sweep", "--target", "splinePsiK", "--m-grid", "5,10", "--tol", "1e-6",
    ])
    assert code == 0
    rows = env["results"]
    assert [r["m"] for r in rows] == [5, 10]
    assert rows[0]["richardson"] == rows[1]["richardson"]
    assert rows[1]["rel_error"] < rows[0]["rel_error"]


def test_bernstein_ok_exit_zero(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1, -0.5, 0.25"))
    code, env = run_json(capsys, ["bernstein", "--m", "3", "--k", "1"])
    assert code == 0
    assert env["results"][0]["ok"] is True


def test_bernstein_violation_exit_one(capsys, monkeypatch):
    import numpy as np

    rng = np.random.default_rng(20260819)
    vecs = [rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9))) for _ in range(500)]
    feed = " ".join(repr(float(x)) for x in vecs[294])
    monkeypatch.setattr("sys.stdin", io.StringIO(feed))
    # no finite vector exceeds the sharp constant; lhs/rhs = 0.857 for this
    # one, so the tightened check lhs <= 0.8 rhs fails
    code, env = run_json(capsys, ["bernstein", "--m", "2", "--k", "1", "--p", "1.5",
                                  "--slack=-0.2"])
    assert code == 1
    assert env["results"][0]["ok"] is False


def test_bernstein_bad_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1.0 spam 2.0"))
    assert main(["bernstein", "--m", "3", "--k", "1"]) == 2
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["bernstein", "--m", "3", "--k", "1"]) == 2


def test_bernstein_inline_and_file(capsys, tmp_path):
    code, env = run_json(capsys, ["bernstein", "--m", "3", "--k", "1",
                                  "--coeffs", "1, -0.5, 0.25"])
    assert code == 0
    assert env["parameters"]["n_coefficients"] == 3
    assert env["provenance"]["sharp_bound"] > 0.0

    path = tmp_path / "c.txt"
    path.write_text("2.0 1.0\n-1.0\n")
    code, env = run_json(capsys, ["bernstein", "--m", "2", "--k", "1",
                                  "--file", str(path)])
    assert code == 0
    assert env["parameters"]["n_coefficients"] == 3

    assert main(["bernstein", "--m", "2", "--k", "1", "--file",
                 str(tmp_path / "missing.txt")]) == 2
    with pytest.raises(SystemExit):  # mutually exclusive sources
        main(["bernstein", "--m", "2", "--k", "1", "--coeffs", "1",
              "--file", str(path)])


def test_sweep_m_range_flags(capsys):
    code, env = run_json(capsys, ["sweep", "--target", "splinePsiK",
                                  "--m-min", "5", "--m-max", "8"])
    assert code == 0
    assert env["parameters"]["m_grid"] == [5, 6, 7, 8]
    # limit targets cite the constant they converge to
    assert env["provenance"]["predicted_constant"] == pytest.approx(
        env["results"][0]["predicted"], rel=1e-15)
    assert main(["sweep", "--target", "splinePsiK", "--m-grid", "5,10",
                 "--m-min", "5", "--m-max", "8"]) == 2
    assert main(["sweep", "--target", "splinePsiK", "--m-min", "9",
                 "--m-max", "8"]) == 2


def test_tensor_limit_only(capsys):
    code, env = run_json(capsys, [
        "tensor", "--family", "daubechies", "--kind", "3", "--m", "6",
        "--k1", "1", "--k2", "1", "--limit-only",
    ])
    assert code == 0
    row = env["results"][0]
    assert row["limit"] == pytest.approx(0.5 * math.pi ** -2, rel=1e-12)
    assert row["lower_bound"] is None
    assert "value" not in row


def test_tensor_spline_with_value(capsys):
    code, env = run_json(capsys, [
        "tensor", "--family", "spline", "--kind", "1", "--m", "3",
        "--k1", "1", "--k2", "0", "--tol", "1e-6",
    ])
    assert code == 0
    row = env["results"][0]
    assert row["axis2_ratio"] == 1.0
    assert row["value"] == pytest.approx(row["axis1_ratio"], rel=1e-12)
    assert row["lower_bound"] > 0.0


def test_tensor_orthonormal_mixed_rejected(capsys):
    code = main(["tensor", "--family", "daubechies", "--kind", "1", "--m", "4",
                 "--k1", "1", "--k2", "2"])
    assert code == 2
    assert "phi axis" in capsys.readouterr().err


def test_verify_single_green_criterion(capsys):
    code, env = run_json(capsys, ["verify", "--criteria", "favard-closed-forms"])
    assert code == 0
    assert env["results"][0]["passed"] is True
    assert env["results"][0]["name"] == "favard-closed-forms"


def test_verify_red_criterion_exits_one(capsys):
    code, env = run_json(capsys, ["verify", "--criteria", "1"])
    assert code == 1
    row = env["results"][0]
    assert row["passed"] is False
    assert "Lam2" in row["detail"]


def test_verify_rejects_unknown_criterion():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--criteria", "bogus"])
    assert e.value.code == 2


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["ckp", "--family", "fourier", "--part", "psi", "--m", "3", "--k", "1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def _one_line_refusal(capsys, argv, code):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("argv", [
    ["bernstein", "--coeffs", "0,0", "--m", "3", "--k", "1"],
    ["bernstein", "--coeffs", "nan,1", "--m", "3", "--k", "1"],
    ["mask", "--family", "spline", "--m", "0"],
    ["mask", "--family", "spline", "--m", "0", "--part", "psi"],
    ["mask", "--family", "daubechies", "--m", "0"],
    ["constants", "--j-max", "-3"],
    ["ckp", "--family", "spline", "--part", "psi", "--m", "3", "--k", "1", "--p", "inf"],
    ["bernstein", "--coeffs", " ".join(["1"] * 8193), "--m", "3", "--k", "1"],
    ["bernstein", "--coeffs", "1 2", "--m", "40", "--k", "39", "--h", "10000000000"],
    ["bernstein", "--coeffs", "1e300 2", "--m", "40", "--k", "39"],
    ["bernstein", "--coeffs", "1 2", "--m", "3", "--k", "1", "--slack", "nan"],
    ["constants", "--set", "favard", "--j-max", "10001"],
    ["mask", "--family", "spline", "--m", "41"],
    ["mask", "--family", "spline", "--m", "1100", "--part", "psi"],
    ["tensor", "--family", "spline", "--kind", "3", "--m", "3", "--k1", "1", "--k2", "1",
     "--limit-only", "--tol", "inf"],
    ["tensor", "--family", "spline", "--kind", "3", "--m", "3", "--k1", "1", "--k2", "1",
     "--limit-only", "--tol", "-1"],
    ["tensor", "--family", "daubechies", "--kind", "3", "--m", "4", "--k1", "1", "--k2", "1",
     "--limit-only", "--tol", "nan"],
    ["sweep", "--target", "fixedKRatio", "--m-grid", "10,12", "--k", "0"],
    ["sweep", "--target", "splinePsiK", "--m-grid", "5,10,10"],
    ["ckp", "--family", "spline", "--m", "3", "--k", "1" + "0" * 400],
    ["sweep", "--target", "splinePsiK", "--m-grid", "5,10", "--k", "1" + "0" * 400],
])
def test_bad_input_exits_two_with_one_line(capsys, argv):
    err = _one_line_refusal(capsys, argv, 2)
    assert err.startswith(f"bernwave {argv[0]}: ")


def test_over_budget_ckp_exits_one_with_one_line(capsys):
    err = _one_line_refusal(capsys, ["ckp", "--family", "daubechies", "--part", "phi", "--m", "6",
                                     "--k", "1", "--p", "1.5", "--tol", "1e-6"], 1)
    assert "node budget" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "5e-324", "abc", "0x1p3", "--", "1,,2", "\t", "1_0", "+", "e5"]),
)


def _mostly(valid, wild):
    # one draw in eight from the wild strategy
    return st.integers(0, 7).flatmap(lambda i: wild if i == 0 else valid)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=_mostly(st.integers(2, 40), st.integers(-2, 44)),
    h=_mostly(st.integers(1, 3), st.one_of(st.integers(-2, 0), st.integers(10**6, 10**400))),
    p=_mostly(st.one_of(st.sampled_from([1.25, 2.0, 3.0, 6.0]), st.floats(1.01, 20.0)), st.floats()),
    slack=_mostly(st.sampled_from([1e-6, 0.0, -0.5, -0.9]), st.floats()),
    n_numbers=_mostly(st.one_of(st.integers(1, 70), st.just(8192)), st.sampled_from([0, 8193])),
    magnitude=st.sampled_from([1.0, 1e-310, 1e200, 1e300]),
    seed=st.integers(0, 2**32 - 1),
    tokens=_mostly(st.just([]), st.lists(_TOKENS, min_size=1, max_size=4)),
    sep=st.sampled_from([" ", ",", "\n", ", "]),
)
def test_bernstein_cli_never_crashes(data, m, h, p, slack, n_numbers, magnitude, seed, tokens, sep):
    # any m, k, h, p, slack and coefficient text: exit 0 or 1 with a strict JSON
    # envelope of finite numbers, or exit 2 with one line on stderr
    k = data.draw(_mostly(st.integers(1, max(1, m - 1)), st.integers(-2, 44)), label="k")
    numbers = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n_numbers) * magnitude
    text = sep.join([repr(float(x)) for x in numbers] + tokens)
    argv = ["bernstein", f"--m={m}", f"--k={k}", f"--h={h}", f"--p={p!r}", f"--slack={slack!r}",
            f"--coeffs={text}"]
    code, out, err = _run_quiet(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("bernwave bernstein: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        row = json.loads(out, parse_constant=_reject_constant)["results"][0]
        assert row["ok"] is (code == 0)
        assert all(math.isfinite(row[key]) for key in ("lhs", "rhs", "lhs_over_rhs"))


def _assert_refusal_or_strict_json(command, code, out, err):
    # exit 2 with one line on stderr, or exit 0 with a strict JSON envelope
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith(f"bernwave {command}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        return None
    assert err == ""
    return json.loads(out, parse_constant=_reject_constant)["results"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["spline", "favard", "all"]),
    j_max=_mostly(st.integers(0, 700), st.one_of(st.integers(-10**6, -1), st.integers(10**4 - 2, 10**40))),
)
def test_constants_cli_never_crashes(which, j_max):
    code, out, err = _run_quiet(["constants", f"--set={which}", f"--j-max={j_max}"])
    rows = _assert_refusal_or_strict_json("constants", code, out, err)
    if rows is not None:
        assert all(math.isfinite(r["value"]) for r in rows)
        if which != "spline":
            assert sum(r["name"].startswith("K_") for r in rows) == j_max + 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["spline", "daubechies"]),
    part=st.sampled_from(["phi", "psi"]),
    m=_mostly(st.integers(1, 40), st.one_of(st.integers(-10**6, 0), st.integers(21, 10**40))),
)
def test_mask_cli_never_crashes(family, part, m):
    code, out, err = _run_quiet(["mask", f"--family={family}", f"--part={part}", f"--m={m}"])
    rows = _assert_refusal_or_strict_json("mask", code, out, err)
    if rows is not None:
        assert rows and all(math.isfinite(r["coefficient"]) for r in rows)


_FAMILY = st.sampled_from(["spline", "daubechies"])
_PART = st.sampled_from(["phi", "psi"])
_GOOD_P = st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.01, 20.0))
_WILD_P = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1.0, 0.5]), st.floats())
_WILD_TOL = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]), st.floats())


def _ckp_argv(family, part, m, k, p=2.0, tol=1e-8):
    return ["ckp", f"--family={family}", f"--part={part}", f"--m={m}", f"--k={k}", f"--p={p!r}",
            f"--tol={tol!r}"]


# every draw is an input ckp must refuse before any quadrature
_CKP_REFUSED = st.one_of(
    # k beyond the wavelet's vanishing moments, or negative
    st.builds(lambda f, m, dk, p: _ckp_argv(f, "psi", m, m + dk, p),
              _FAMILY, st.integers(1, 20), st.integers(1, 10**6), _GOOD_P),
    st.builds(lambda f, part, m, k: _ckp_argv(f, part, m, k), _FAMILY, _PART, st.integers(1, 20),
              st.integers(-10**6, -1)),
    # p at or below 1, or not finite
    st.builds(lambda f, part, m, p: _ckp_argv(f, part, m, 1, p), _FAMILY, _PART, st.integers(1, 20),
              st.one_of(st.floats(max_value=1.0), st.sampled_from([math.nan, math.inf, -math.inf]))),
    # order past the family's limit, or not positive
    st.builds(lambda m, part: _ckp_argv("spline", part, m, 1), st.integers(41, 10**40), _PART),
    st.builds(lambda m, part: _ckp_argv("daubechies", part, m, 1), st.integers(21, 10**40), _PART),
    st.builds(lambda f, part, m: _ckp_argv(f, part, m, 0), _FAMILY, _PART, st.integers(-10**6, 0)),
    # tolerance not positive, or not finite
    st.builds(lambda f, part, m, tol: _ckp_argv(f, part, m, 1, tol=tol), _FAMILY, _PART,
              st.integers(1, 20), st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]))),
    # spline phi with (m - k) p <= 1: the weighted norm diverges at infinity
    st.builds(lambda m, dk, p: _ckp_argv("spline", "phi", m, m + dk, p),
              st.integers(1, 40), st.integers(0, 10**6), _GOOD_P),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(argv=_CKP_REFUSED)
def test_ckp_cli_refuses_bad_input_with_one_line(argv):
    code, out, err = _run_quiet(argv)
    assert code == 2, (argv, err)
    assert out == ""
    assert err.startswith("bernwave ckp: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# at p = 2 every integer weight takes the exact route: no quadrature, a few
# milliseconds per norm, so the engine itself can run on every draw
@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    family=_FAMILY,
    part=_PART,
    m=st.integers(1, 41),
    k=_mostly(st.integers(0, 12), st.integers(-3, 10**400)),
    tol=_mostly(st.sampled_from([1e-6, 1e-8, 1e-12]), st.one_of(st.just(1e-17), _WILD_TOL)),
)
@example(family="spline", part="psi", m=3, k=10**400, tol=1e-8)
def test_ckp_cli_at_p2_never_crashes(family, part, m, k, tol):
    code, out, err = _run_quiet(_ckp_argv(family, part, m, k, 2.0, tol))
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert err == ""
        rows = json.loads(out, parse_constant=_reject_constant)["results"]
        assert len(rows) == 1 and _finite_numbers(rows[0])
    else:
        assert out == ""
        assert err.startswith("bernwave ckp: ")
        assert err.count("\n") == 1 and err.endswith("\n")


# off p = 2 every norm runs the quadrature with its certified tail; loose
# tolerances keep a draw to seconds, and a refusal must still be one line
@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    family=_FAMILY,
    part=_PART,
    m=st.integers(1, 12),
    k=st.integers(0, 2),
    p=st.floats(1.2, 4.0).filter(lambda p: p != 2.0),
    tol=st.floats(1e-4, 1e-3),
)
def test_ckp_cli_off_p2_never_crashes(family, part, m, k, p, tol):
    code, out, err = _run_quiet(_ckp_argv(family, part, m, k, p, tol))
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert err == ""
        rows = json.loads(out, parse_constant=_reject_constant)["results"]
        assert len(rows) == 1 and _finite_numbers(rows[0]) and math.isfinite(rows[0]["ratio"])
    else:
        assert out == ""
        assert err.startswith("bernwave ckp: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def _finite_numbers(row):
    return all(math.isfinite(v) for v in row.values() if isinstance(v, float))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    family=_FAMILY,
    kind=st.sampled_from(["1", "2", "3"]),
    m=_mostly(st.integers(1, 12), st.integers(-3, 0)),
    k1=_mostly(st.integers(0, 4), st.integers(-2, 60)),
    k2=_mostly(st.integers(0, 4), st.integers(-2, 60)),
    p=_mostly(_GOOD_P, _WILD_P),
    tol=_mostly(st.one_of(st.just(1e-6), st.floats(1e-12, 1e-2)), _WILD_TOL),
)
@example(family="daubechies", kind="3", m=4, k1=1, k2=1, p=math.nan, tol=1e-6)
@example(family="daubechies", kind="3", m=-4, k1=1, k2=1, p=2.0, tol=1e-6)
@example(family="spline", kind="3", m=3, k1=1, k2=1, p=2.0, tol=math.inf)
def test_tensor_limit_only_cli_never_crashes(family, kind, m, k1, k2, p, tol):
    code, out, err = _run_quiet(["tensor", f"--family={family}", f"--kind={kind}", f"--m={m}",
                                 f"--k1={k1}", f"--k2={k2}", f"--p={p!r}", f"--tol={tol!r}",
                                 "--limit-only"])
    rows = _assert_refusal_or_strict_json("tensor", code, out, err)
    if rows is not None:
        assert _finite_numbers(rows[0])
        assert math.isfinite(tol) and tol > 0.0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    m=_mostly(st.integers(2, 8), st.integers(-2, 44)),
    k=_mostly(st.integers(1, 7), st.integers(-2, 44)),
    p=_mostly(_GOOD_P, _WILD_P),
    j_list=st.lists(_mostly(st.integers(0, 64), st.integers(-3, 10**400)), min_size=1, max_size=3),
)
@example(m=3, k=1, p=2.0, j_list=[-1])
@example(m=3, k=1, p=2.0, j_list=[10**400])
def test_sharpness_cli_never_crashes(m, k, p, j_list):
    code, out, err = _run_quiet(["sharpness", f"--m={m}", f"--k={k}", f"--p={p!r}",
                                 "--j-list=" + ",".join(map(str, j_list))])
    rows = _assert_refusal_or_strict_json("sharpness", code, out, err)
    if rows is not None:
        assert len(rows) == len(j_list) and all(_finite_numbers(r) for r in rows)


def test_sweep_refuses_bad_order_before_any_quadrature(capsys):
    # the out-of-range order comes last; four Daubechies ratios used to run first
    t0 = time.perf_counter()
    err = _one_line_refusal(capsys, ["sweep", "--target", "daubPsiK", "--m-grid", "10,12,14,16,21"], 2)
    assert time.perf_counter() - t0 < 1.0
    assert "beyond supported limit" in err


_SWEEP_TARGETS = {
    # target -> largest order every family it measures supports
    "splinePhiNorm": 40, "splinePsiNorm": 40, "splineDiagNorm": 40, "daubPhiNorm": 20,
    "daubPsiNorm": 20, "daubPhiMinusK": 20, "daubPsiK": 20, "splinePhiK": 40, "splinePsiK": 40,
    "splineGeom": 40, "daubGeom": 20, "geomRatio": 20, "fixedKRatio": 20,
}
_KNOWN_TARGET = st.sampled_from(sorted(_SWEEP_TARGETS))
_GOOD_GRID = st.lists(st.integers(2, 20), min_size=2, max_size=5, unique=True)


def _sweep_argv(target, grid, p=2.0, tol=1e-6, extra=()):
    return ["sweep", f"--target={target}", "--m-grid=" + ",".join(map(str, grid)), f"--p={p!r}",
            f"--tol={tol!r}", *extra]


def _grid_with_bad_order(target, grid, bad, where):
    grid = list(grid)
    grid.insert(where % (len(grid) + 1), bad)
    return _sweep_argv(target, grid)


# every draw is a sweep that must be refused before its first quadrature
_SWEEP_REFUSED = st.one_of(
    st.builds(_sweep_argv, st.text(max_size=12).filter(lambda s: s not in _SWEEP_TARGETS), _GOOD_GRID),
    # fewer than two orders
    st.builds(_sweep_argv, _KNOWN_TARGET, st.lists(st.integers(2, 20), max_size=1)),
    # one order not positive, or past a measured family's limit, anywhere in the grid
    st.builds(_grid_with_bad_order, _KNOWN_TARGET, _GOOD_GRID, st.integers(-10**6, 0), st.integers(0, 5)),
    _KNOWN_TARGET.flatmap(lambda t: st.builds(
        _grid_with_bad_order, st.just(t), _GOOD_GRID,
        st.integers(_SWEEP_TARGETS[t] + 1, 10**40), st.integers(0, 5))),
    # p at or below 1, or not finite
    st.builds(lambda t, g, p: _sweep_argv(t, g, p=p), _KNOWN_TARGET, _GOOD_GRID,
              st.one_of(st.floats(max_value=1.0), st.sampled_from([math.nan, math.inf, -math.inf]))),
    # tolerance not positive, or not finite
    st.builds(lambda t, g, tol: _sweep_argv(t, g, tol=tol), _KNOWN_TARGET, _GOOD_GRID,
              st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]))),
    # an explicit grid together with a range
    st.builds(lambda t, g, lo: _sweep_argv(t, g, extra=(f"--m-min={lo}", f"--m-max={lo + 3}")),
              _KNOWN_TARGET, _GOOD_GRID, st.integers(2, 10)),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(argv=_SWEEP_REFUSED)
def test_sweep_cli_refuses_bad_input_with_one_line(argv):
    code, out, err = _run_quiet(argv)
    assert code == 2, (argv, err)
    _assert_refusal_or_strict_json("sweep", code, out, err)

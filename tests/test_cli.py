import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from greenbvp import cli, greens
from greenbvp import integrate as integrate_module
from greenbvp.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFICATION, MAX_GRID, \
    MAX_SWEEP_POINTS, load_config, main
from greenbvp.expressions import Binary, Call, Const, Neg, Power, Var
from greenbvp.spectrum import MAX_SCAN_POINTS

from test_expressions import to_string


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "n": 2,
        "T": 1.0,
        "coefficients": ["0", "0", "0", "0"],
        "lambda": 0.0,
        "kind": "mixed2",
        "extension": "none",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_builds_operator(tmp_path):
    path = write_config(tmp_path, coefficients=["(t-2)^4", "0", "0", "0"],
                        T=2.0, kind="neumann", extension="double")
    cfg = load_config(path)
    assert cfg["operator"].length == 4.0
    assert cfg["kind"].value == "neumann"


def test_config_rejects_wrong_count(tmp_path):
    path = write_config(tmp_path, coefficients=["0", "0"])
    with pytest.raises(Exception, match="exactly 4"):
        load_config(path)


_FOUR = ["0", "0", "0", "0"]


@pytest.mark.parametrize("raw, message", [
    ({"n": 2, "T": [1], "coefficients": _FOUR, "kind": "neumann"}, "'T' must be a finite number"),
    ({"n": 2, "T": "1e400", "coefficients": _FOUR, "kind": "neumann"},
     "'T' must be a finite number"),
    ({"n": 2, "T": 1.0, "coefficients": _FOUR, "kind": "neumann", "lambda": None},
     "'lambda' must be a finite number"),
    ({"n": 2, "T": 1.0, "coefficients": _FOUR, "kind": "neumann", "lambda": [1]},
     "'lambda' must be a finite number"),
    ({"n": 2, "T": 1.0, "coefficients": _FOUR, "kind": "neumann", "lambda": "inf"},
     "'lambda' must be a finite number"),
    ({"n": 1, "T": 1.0, "coefficients": [1, "0"], "kind": "neumann"},
     "a_0 must be an expression string"),
    ({"n": 1, "T": 1.0, "coefficients": [0, "0"], "kind": "neumann"},
     "a_0 must be an expression string"),
    (3, "must be a JSON object"),
    (["n", "T", "coefficients", "kind"], "must be a JSON object"),
], ids=["T-list", "T-overflow", "lambda-null", "lambda-list", "lambda-inf",
        "coefficient-1", "coefficient-0", "number", "list"])
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, raw, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = main(["green", "--config", str(config), "--grid", "5",
                 "--out", str(tmp_path / "grid.csv")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_config_rejects_lambda_in_coefficients(tmp_path):
    path = write_config(tmp_path, coefficients=["lambda", "0", "0", "0"])
    with pytest.raises(Exception, match="lambda"):
        load_config(path)


def test_green_csv_format(tmp_path):
    config = write_config(tmp_path, kind="dirichlet", n=1,
                          coefficients=["0", "0"], T=1.0)
    out = tmp_path / "grid.csv"
    code = main(["green", "--config", config, "--grid", "5", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,s,value"
    assert len(lines) == 1 + 25
    # row-major by t; 17 significant digits survive a round trip
    t0, s0, v0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(s0) == 0.0
    t_vals = [float(line.split(",")[0]) for line in lines[1:]]
    assert t_vals == sorted(t_vals)
    mid = lines[1 + 2 * 5 + 2].split(",")
    assert float(mid[2]) == pytest.approx(0.5 * (0.5 - 1.0), abs=1e-10)


def test_green_malformed_expression_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, coefficients=["(t-", "0", "0", "0"])
    out = tmp_path / "grid.csv"
    code = main(["green", "--config", config, "--grid", "5", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "position" in capsys.readouterr().err


def test_green_resonant_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, n=1, coefficients=["0", "0"], kind="neumann")
    out = tmp_path / "grid.csv"
    code = main(["green", "--config", config, "--grid", "5", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "resonant" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"n": 1, "coefficients": ["0", "0"], "kind": "dirichlet", "lambda": 1e12},
    {"coefficients": ["exp(exp(5*t))", "0", "0", "0"]},
    {"n": 1, "T": 4, "coefficients": ["0.0", "t^0 / 2.2250738585072014e-308"],
     "kind": "neumann"},
], ids=["lambda-1e12", "exp-exp", "overflowing-estimate"])
def test_green_over_segment_budget_exits_3(tmp_path, capsys, overrides):
    # all need far more segments than the integration budget (MAX_CELLS):
    # refused before any allocation, in bounded time.  The last one's segment
    # estimate overflows to inf, with no numpy warning (the suite makes a
    # RuntimeWarning an error)
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "grid.csv"
    t0 = time.perf_counter()
    code = main(["green", "--config", config, "--grid", "21", "--out", str(out)])
    assert time.perf_counter() - t0 < 10.0
    assert code == EXIT_NUMERICAL
    assert "integration cells needed" in capsys.readouterr().err


def test_green_derived_segments_over_budget_exit_3(tmp_path, capsys):
    # u'' D at lambda 4e8, quadrupled from T = 20: the base integration fits
    # the budget (1.3e5 cells), the 4T system it derives would have four
    # times its segments and is refused before mirroring allocates them
    config = write_config(tmp_path, n=1, T=20.0, coefficients=["0", "0"], kind="dirichlet",
                          extension="quadruple", **{"lambda": 4e8})
    t0 = time.perf_counter()
    code = main(["green", "--config", config, "--grid", "5", "--out", str(tmp_path / "g.csv")])
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_NUMERICAL
    assert "integration cells needed" in capsys.readouterr().err


def test_green_pole_inside_the_interval_exits_3(tmp_path, capsys):
    # a coefficient unbounded at t = 4.535: the cells around the pole stay
    # unresolved through every halving; one unbounded at t = 1: a cell
    # samples it as a non-finite value.  Each input is refused quickly
    cases = [
        (dict(T=18.59, kind="mixed2", extension="double",
              coefficients=["20.45", "0", "15.92/abs(4.535 - t)", "0"], **{"lambda": -1.35e6}),
         "coefficients not resolved"),
        (dict(T=1.45, kind="neumann", coefficients=["t", "0", "t", "1/(1 - t)"]),
         "coefficients not finite"),
        (dict(T=1.45, kind="neumann", coefficients=["t", "0", "t", "25.31/(1 - t)"]),
         "coefficients not finite"),
    ]
    for overrides, message in cases:
        config = write_config(tmp_path, **overrides)
        t0 = time.perf_counter()
        code = main(["green", "--config", config, "--grid", "5",
                     "--out", str(tmp_path / "g.csv")])
        assert time.perf_counter() - t0 < 5.0
        assert code == EXIT_NUMERICAL
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("a1, code, message", [
    ("t / t", EXIT_CONFIG, "non-finite values"),
    ("(t / t)^0", EXIT_NUMERICAL, "resonant"),
])
def test_green_zero_over_zero_coefficient_prints_no_numpy_warning(tmp_path, a1, code, message):
    # t / t is 0/0 at t = 0 and refused; (t / t)^0 is 1 everywhere, and u'' + u'
    # is resonant under Neumann conditions.  Either way the program's own
    # message is all that reaches stderr (run as a user would, outside the
    # suite's warnings-as-errors filter)
    config = write_config(tmp_path, n=1, T=1, coefficients=["0", a1], kind="neumann")
    result = subprocess.run([sys.executable, "-m", "greenbvp.cli", "green", "--config", config,
                             "--grid", "5", "--out", str(tmp_path / "grid.csv")],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == code
    assert message in result.stderr
    assert "RuntimeWarning" not in result.stderr


def _coefficients():
    """Random coefficient expression trees in t, printed as config strings."""
    leaf = st.one_of(st.builds(Const, st.floats(min_value=-50.0, max_value=50.0)),
                     st.just(Var("t")))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(Power, children, st.integers(min_value=0, max_value=4)),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "abs"]), children),
        )

    return st.recursive(leaf, extend, max_leaves=8).map(to_string)


_LAMBDAS = st.one_of(st.just(0.0), st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                                             st.sampled_from([-1.0, 1.0]),
                                             st.floats(min_value=-3.0, max_value=14.0)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.sampled_from([1, 2]), data=st.data(), T=st.floats(min_value=0.05, max_value=20.0),
       kind=st.sampled_from(["neumann", "dirichlet", "mixed1", "mixed2", "periodic",
                             "antiperiodic"]),
       extension=st.sampled_from(["none", "double", "quadruple"]), lam=_LAMBDAS)
def test_green_command_ends_in_a_documented_exit_code(n, data, T, kind, extension, lam):
    # any operator, interval, family and lambda up to 1e14 ends in exit code
    # 0-3: resonant or over-budget problems are refused, nothing raises
    coefficients = data.draw(st.lists(_coefficients(), min_size=2 * n, max_size=2 * n))
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), n=n, T=T, coefficients=coefficients, kind=kind,
                              extension=extension, **{"lambda": lam})
        t0 = time.perf_counter()
        code = main(["green", "--config", config, "--grid", "5",
                     "--out", str(Path(tmp) / "grid.csv")])
        seconds = time.perf_counter() - t0
    assert code in (0, 1, 2, 3)
    # and in bounded time: a draw that takes over 60 s fails, named in the message
    assert seconds <= 60.0, f"{seconds:.1f} s for {coefficients}, T = {T}, {kind}, " \
                            f"{extension}, lambda = {lam}"


def test_spectrum_reports_mixed2_eigenvalue(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["spectrum", "--config", config, "--window", "-10", "0"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "mixed2"
    lams = [e["lambda"] for e in payload["eigenvalues"]]
    assert any(abs(lam - (-math.pi ** 4 / 16)) < 1e-4 for lam in lams)
    assert "generated_at" in payload


def test_spectrum_refuses_zero_scan_step(tmp_path, capsys):
    config = write_config(tmp_path, n=1, coefficients=["0", "0"], kind="dirichlet")
    code = main(["spectrum", "--config", config, "--window", "0", "50", "--scan-step", "0"])
    assert code == EXIT_CONFIG
    assert "scan_step must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--window", "0", "50", "--scan-step", str(50 / MAX_SCAN_POINTS)],
     "MAX_SCAN_POINTS"),
    (["green", "--grid", str(MAX_GRID + 1), "--out", "unused.csv"], "--grid"),
    (["verify", "--grid", str(MAX_GRID + 1)], "--grid"),
    (["compare", "--sigma1", "1", "--sigma2", "0", "--case", "ND-1",
      "--grid", str(MAX_GRID + 2)], "--grid"),
    (["sign-intervals", "--side", "neg", "--sweep", "unused.csv",
      "--sweep-points", str(MAX_SWEEP_POINTS + 1)], "--sweep-points"),
])
def test_size_inputs_above_their_bound_exit_2(tmp_path, capsys, argv, message):
    # refused before anything is allocated: without the bounds a large enough
    # value ends in a numpy allocation error, exit 1 and a traceback
    config = write_config(tmp_path, n=1, coefficients=["0", "0"], kind="dirichlet")
    out = tmp_path / "unused.csv"
    argv = [str(out) if arg == "unused.csv" else arg for arg in argv]
    code = main(argv[:1] + ["--config", config] + argv[1:])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_default_scan_over_its_bound_exits_2(tmp_path, capsys, monkeypatch):
    # u'' D over (0, 1e9) needs 161 054 points of the frequency scan: refused
    # before anything is integrated, not cut to a partial list
    def integrate(*args, **kwargs):
        raise AssertionError("a scan over MAX_SCAN_POINTS was integrated")

    monkeypatch.setattr(integrate_module, "_integrate", integrate)
    config = write_config(tmp_path, n=1, coefficients=["0", "0"], kind="dirichlet")
    code = main(["spectrum", "--config", config, "--window", "0", "1e9"])
    assert code == EXIT_CONFIG
    assert "MAX_SCAN_POINTS" in capsys.readouterr().err


def test_spectrum_default_scan_over_the_memory_bound_exits_3(tmp_path, capsys, monkeypatch):
    # over (0, 1e7) the frequency scan has 16 107 points, whose end matrices
    # would take 544 MB: refused by MAX_BATCH_BYTES before any cell is propagated
    def propagate(*args, **kwargs):
        raise AssertionError("a batch over MAX_BATCH_BYTES reached the propagator")

    monkeypatch.setattr(integrate_module, "_magnus_segments", propagate)
    config = write_config(tmp_path, n=1, coefficients=["0", "0"], kind="dirichlet")
    code = main(["spectrum", "--config", config, "--window", "0", "1e7"])
    assert code == EXIT_NUMERICAL
    assert "MAX_BATCH_BYTES" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["green", "--grid", "-3", "--out", "unused.csv"], "--grid -3 is below"),
    (["verify", "--grid", "0"], "--grid 0 is below"),
    (["verify", "--grid", "1"], "--grid 1 is below"),
    (["compare", "--sigma1", "1", "--sigma2", "0", "--case", "ND-1", "--grid", "0"],
     "--grid 0 is below"),
    (["compare", "--sigma1", "1", "--sigma2", "0", "--case", "ND-1", "--grid", "42"],
     "--grid 42 must be odd"),
    (["sign-intervals", "--side", "neg", "--sweep", "unused.csv", "--sweep-points", "-1"],
     "--sweep-points -1 is below"),
], ids=["green-negative", "verify-0", "verify-1", "compare-0", "compare-even", "sweep-negative"])
def test_size_inputs_below_their_bound_exit_2(tmp_path, capsys, argv, message):
    # without the bounds these end in numpy's own messages, or (verify --grid 1,
    # and compare --grid 42 where the premise does not apply) exit 0 having
    # checked nothing
    config = write_config(tmp_path, n=1, coefficients=["0", "0"], kind="dirichlet")
    out = tmp_path / "unused.csv"
    argv = [str(out) if arg == "unused.csv" else arg for arg in argv]
    code = main(argv[:1] + ["--config", config] + argv[1:])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--lambda", "nan"], "--lambda"),
    (["verify", "--lambda", "0", "inf"], "--lambda"),
    (["spectrum", "--window", "-5", "inf"], "--window"),
    (["spectrum", "--window", "0", "50", "--scan-step", "nan"], "--scan-step"),
    (["sign-intervals", "--side", "neg", "--window", "0", "1e999"], "--window"),
    (["sign-intervals", "--side", "neg", "--principal-window", "nan", "1"],
     "--principal-window"),
], ids=["lambda-nan", "lambda-inf", "window-inf", "scan-step-nan", "window-overflow",
        "principal-window-nan"])
def test_non_finite_float_flags_exit_2(tmp_path, capsys, argv, flag):
    # refused as configuration errors naming the flag; without the check nan
    # and inf reach the integrator or the scan and end in exit 3 or in a
    # message about nan points
    config = write_config(tmp_path, n=1, coefficients=["0", "0"], kind="dirichlet")
    with pytest.raises(SystemExit) as refusal:
        main(argv[:1] + ["--config", config] + argv[1:])
    assert refusal.value.code == EXIT_CONFIG
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, exponent, plain", [
    (["spectrum", "--window", "{}", "10"], "-1e3", "-1000"),
    (["verify", "--identity", "N-P2T", "--grid", "21", "--lambda", "{}"], "-1e-3", "-0.001"),
    (["sign-intervals", "--side", "neg", "--principal-window", "{}", "2"], "-1e1", "-10"),
], ids=["window", "lambda", "principal-window"])
def test_negative_float_flags_take_an_exponent(tmp_path, capsys, argv, exponent, plain):
    # argparse alone reads -1e3 as a flag: "expected 2 arguments", or
    # "unrecognized arguments" after --lambda, and exit 2
    config = write_config(tmp_path)
    payloads = []
    for value in (exponent, plain):
        code = main(argv[:1] + ["--config", config] + [a.format(value) for a in argv[1:]])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        del payload["generated_at"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_verify_identities_exit_codes(tmp_path, capsys):
    config = write_config(tmp_path, kind="neumann", T=1.0)
    code = main(["verify", "--config", config, "--identity", "N-P2T",
                 "--lambda", "1.0", "--grid", "21"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rows = payload["identities"]
    assert rows[0]["tag"] == "N-P2T"
    assert rows[0]["pass"] and rows[0]["residual"] <= 1e-6


def test_verify_all_with_multiple_lambdas(tmp_path, capsys):
    config = write_config(tmp_path, kind="neumann")
    code = main(["verify", "--config", config, "--identity", "all",
                 "--lambda", "0.5", "1.0", "--grid", "21"])
    assert code == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["identities"]
    assert len(rows) >= 2 * 17


def test_sign_intervals_with_sweep(tmp_path, capsys):
    config = write_config(tmp_path, n=2, T=1.5, kind="neumann",
                          coefficients=["0", "0", "0", "0"])
    sweep = tmp_path / "sweep.csv"
    code = main(["sign-intervals", "--config", config, "--side", "neg",
                 "--principal-window", "-4", "4", "--sweep", str(sweep),
                 "--sweep-points", "5"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["interval"][0] == pytest.approx(-6.1798, abs=1e-2)
    lines = sweep.read_text().strip().splitlines()
    assert lines[0] == "lambda,min,max"
    assert len(lines) == 6


def test_compare_command(tmp_path, capsys):
    config = write_config(tmp_path, n=2, T=2.0, kind="neumann",
                          coefficients=["(t-2)^4", "0", "0", "0"],
                          **{"lambda": 2.0})
    out = tmp_path / "solutions.csv"
    code = main(["compare", "--config", config, "--sigma1", "2",
                 "--sigma2", "sin(3*t)", "--case", "ND-1", "--grid", "41",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] and payload["tag"] == "ND"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,u_N,u_D,u_M1,u_M2"
    assert len(lines) == 42


def test_solution_csv_integrates_the_operator_once(tmp_path, monkeypatch):
    # the four base kernels of compare --out share one fundamental system
    config = write_config(tmp_path, n=2, T=2.0, coefficients=["(t-2)^4", "0", "0", "0"],
                          **{"lambda": 2.0})
    calls = []
    integrate = integrate_module._integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "_integrate", counted)
    out = tmp_path / "solutions.csv"
    cfg = load_config(config)
    cli._write_solution_csv(str(out), cfg["operator"], greens.kernel_source(cfg["lambda"]),
                            "2", "sin(3*t)", 41)
    assert len(calls) == 1
    assert out.read_text().splitlines()[0] == "t,u_N,u_D,u_M1,u_M2"


@pytest.mark.parametrize("case", ["ND-1", "NM1-2", "M2D-3"])
def test_compare_out_integrates_each_length_once(tmp_path, monkeypatch, case):
    # compare --out writes its CSV from the kernels the comparison check built:
    # the base operator and its doubled extension are each integrated once
    config = write_config(tmp_path, n=2, T=2.0, coefficients=["(t-2)^4", "0", "0", "0"],
                          **{"lambda": 2.0})
    lengths = []
    integrate = integrate_module._integrate

    def counted(op, *args, **kwargs):
        lengths.append(op.length)
        return integrate(op, *args, **kwargs)

    monkeypatch.setattr(integrate_module, "_integrate", counted)
    out = tmp_path / "solutions.csv"
    sigma1, sigma2 = {"ND-1": ("2", "sin(3*t)"), "NM1-2": ("1", "0.5"),
                      "M2D-3": ("-1", "-0.5")}[case]
    code = main(["compare", "--config", config, "--sigma1", sigma1, "--sigma2", sigma2,
                 "--case", case, "--out", str(out)])
    assert code in (EXIT_OK, EXIT_VERIFICATION)
    assert sorted(lengths) == sorted(set(lengths))
    assert 2.0 in lengths
    assert out.read_text().splitlines()[0] == "t,u_N,u_D,u_M1,u_M2"


def test_compare_bad_case_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["compare", "--config", config, "--sigma1", "1",
                 "--sigma2", "0", "--case", "bogus"])
    assert code == EXIT_CONFIG


def test_verify_coefficient_divided_by_zero_exits_2(tmp_path, capsys):
    # 1/0 divides two constants, which raises where t/0 gives numpy's inf: both
    # are coefficients with non-finite values, a configuration error
    config = write_config(tmp_path, coefficients=["1/0", "0", "0", "0"], kind="neumann")
    code = main(["verify", "--config", config, "--identity", "N-P2T", "--grid", "5"])
    assert code == EXIT_CONFIG
    assert "coefficient 0: non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("sigma1", ["1e400", "1/0"])
def test_compare_non_finite_sigma1_exits_2(tmp_path, capsys, sigma1):
    # 1e400 is inf: |sigma2| <= sigma1 held, and the check passed with an
    # Infinity in its JSON
    config = write_config(tmp_path, n=2, T=2.0, kind="neumann",
                          coefficients=["(t-2)^4", "0", "0", "0"], **{"lambda": 2.0})
    code = main(["compare", "--config", config, "--sigma1", sigma1, "--sigma2", "0",
                 "--case", "ND-1"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG and captured.out == ""
    assert "sigma1: non-finite values" in captured.err


def test_compare_non_finite_sigma2_exits_2(tmp_path, capsys):
    # u'' on [0, 1] at lambda = -1: 0 <= sigma2 <= sigma1 held within a bar
    # of inf, and the NaN solutions failed the theorem with exit 1
    config = write_config(tmp_path, n=1, T=1.0, kind="neumann", coefficients=["0", "0"],
                          **{"lambda": -1.0})
    code = main(["compare", "--config", config, "--sigma1", "0", "--sigma2", "1e400",
                 "--case", "ND-2"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG and captured.out == ""
    assert "sigma2: non-finite values" in captured.err


@pytest.mark.parametrize("sigma2", ["0", "1e308"])
def test_compare_overflowing_solution_exits_3(tmp_path, capsys, sigma2):
    # a finite source of 1e308 overflows the Green integral: the check passed
    # with "worst_slack": Infinity (invalid JSON), or failed on NaN
    config = write_config(tmp_path, n=2, T=2.0, kind="neumann",
                          coefficients=["(t-2)^4", "0", "0", "0"], **{"lambda": 2.0})
    code = main(["compare", "--config", config, "--sigma1", "1e308", "--sigma2", sigma2,
                 "--case", "ND-1"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL and captured.out == ""
    assert captured.err.startswith("error: neumann solution not finite")
    assert captured.err.count("\n") == 1
    assert "Infinity" not in captured.err and "NaN" not in captured.err


def test_verify_rows_carry_the_bar_that_decided_pass(tmp_path, capsys):
    # u'''' on [0, 1] just off the first mixed eigenvalue -(pi/2)^4: the bars
    # of the rows near it scale with kernels of about 3.3e5
    config = write_config(tmp_path, kind="neumann")
    code = main(["verify", "--config", config, "--identity", "all", "--lambda",
                 "0.7", repr(-(math.pi / 2) ** 4 * (1 + 1e-6)), "--grid", "21"])
    assert code == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["identities"]
    assert all("tol" in row for row in rows)
    done = [row for row in rows if not row["skipped"]]
    assert done and all(row["pass"] == (row["residual"] <= row["tol"]) for row in done)
    assert max(row["tol"] for row in done) > 1e-3


def test_cli_module_entry_point():
    result = subprocess.run([sys.executable, "-m", "greenbvp.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "paper-examples" in result.stdout


def test_default_paths_load_no_scipy():
    # kernels, grids, characteristic functions, eigenfunctions and the
    # constant-sign test at a double root (the antiperiodic principal of
    # u'''' on [0, 2], -pi^4 / 16) run on numpy alone; scipy.integrate (the
    # tests' RK45 reference, integrate._rk_reference) is imported on first
    # use.  A top-level scipy import would cost every command about 0.3 s of
    # start-up
    probe = """
import math, sys
import greenbvp, greenbvp.cli
from greenbvp import BCKind, LinearOperator, ProblemSpec, build_greens, char_det_scan
from greenbvp import extend_to_double, principal_eigenvalue
from greenbvp.spectrum import eigenfunction_at
op = LinearOperator.from_exprs(1, 1.0, ["0", "0"])
build_greens(ProblemSpec(op, BCKind.DIRICHLET, 2.0)).sample_grid(11)
char_det_scan(op, BCKind.DIRICHLET, [1.0, 2.0, 30.0])
eigenfunction_at(op, BCKind.DIRICHLET, math.pi ** 2)
op4 = extend_to_double(LinearOperator.from_exprs(2, 1.0, ["0"] * 4))
assert abs(principal_eigenvalue(op4, BCKind.ANTIPERIODIC, (-10.0, -1.0))
           + math.pi ** 4 / 16) < 1e-6
print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_outputs_deterministic(tmp_path):
    config = write_config(tmp_path, kind="dirichlet", n=1, coefficients=["0", "0"])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["green", "--config", config, "--grid", "9", "--out", str(out1)])
    main(["green", "--config", config, "--grid", "9", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_paper_examples_subprocess():
    result = subprocess.run([sys.executable, "-m", "greenbvp.cli", "paper-examples"],
                            capture_output=True, text=True, timeout=560)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [ln for ln in result.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 20
    assert all(ln.startswith("PASS") for ln in lines)

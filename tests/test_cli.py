import json
from pathlib import Path

import numpy as np
import pytest

from gaussht import AsymptoticProblem, FiniteProblem, make_rule, make_trig_symbol
from gaussht.cli import emit, main, parse_config, run
from gaussht.errors import IoError, ParseError, SizeOverflow, ValidationError

MINIMAL = {"dim": 1, "kappa": 0.5, "q1": {"0": 1}, "q2": {"0": 2}, "command": "asymptotic"}


def config_text(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_defaults():
    config = parse_config(config_text())
    assert config.command == "asymptotic"
    assert config.t_grid == 101
    assert config.format == "json"
    assert config.problem.kappa == 0.5
    assert config.problem.state2.symbol.coeffs[(0,)] == 2.0
    assert len(config.digest) == 64


def test_parse_record_syntax_and_displacement():
    text = config_text(
        q1=[{"index": [0], "re": 1.0}, {"index": [1], "re": 0.5}, {"index": [-1], "re": 0.5}],
        y2=[{"site": [0], "re": 1.0, "im": -0.5}],
    )
    config = parse_config(text)
    assert config.problem.state1.symbol.coeffs[(1,)] == 0.5
    assert config.problem.state2.displacement.support[(0,)] == 1.0 - 0.5j


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_config("{not json")
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(q2={"0,0": 2}))
    assert err.value.field == "dim"
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(kappa=-1.0))
    assert err.value.field == "kappa"
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(mystery=True))
    assert err.value.field == "mystery"
    with pytest.raises(ValidationError):
        parse_config(config_text(command="explode"))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({k: v for k, v in MINIMAL.items() if k != "q1"}))
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(r_list=[-0.1]))
    assert err.value.field == "r_list"
    with pytest.raises(ValidationError):
        parse_config(config_text(format="xml"))
    with pytest.raises(ValidationError):
        parse_config(config_text(y1=[{"re": 1.0}]))


@pytest.mark.parametrize(
    "key, value",
    [
        ("dim", True),
        ("kappa", True),
        ("t_grid", True),
        ("quadrature_points", True),
        ("symbol_grid", True),
        ("fock_cutoff", True),
        ("basis_cap", True),
        ("dense_cap", True),
        ("n_list", [1, True]),
        ("r_list", [0.05, True]),
        ("a_list", [False]),
    ],
)
def test_booleans_are_not_numbers(key, value):
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(**{key: value}))
    assert err.value.field == key


def test_boolean_dim_exits_with_named_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(config_text(dim=True))
    assert main([str(path), "--out", str(tmp_path)]) == 1
    assert "ValidationError: dim:" in capsys.readouterr().err


def test_nan_kappa_rejected_as_kappa():
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(kappa=float("nan")))
    assert err.value.field == "kappa"
    assert "different kappa" not in str(err.value)


def test_infinite_kappa_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(kappa=float("inf")))
    assert err.value.field == "kappa"


def test_infinite_polar_argument_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config('{"dim": 1, "kappa": 0.5, "q1": {"0": 1}, "q2": {"0": 2},'
                     ' "command": "asymptotic", "a_list": [Infinity]}')
    assert err.value.field == "a_list"


@pytest.mark.parametrize(
    "key, value",
    [
        ("q1", {"0": True}),
        ("q1", {"0": "3"}),
        ("q1", {"0": {"re": 1.0, "im": float("nan")}}),
        ("q1", [{"index": [0.7], "re": 1.0}]),
        ("y1", [{"site": [0], "re": float("nan")}]),
        ("y1", [{"site": [True], "re": 1.0}]),
        ("y1", 5),
    ],
)
def test_coefficients_and_sites_are_checked(key, value):
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(**{key: value}))
    assert err.value.field == key


def test_run_asymptotic_identical_states(tmp_path):
    config = parse_config(config_text(q2={"0": 1}, t_grid=5))
    assert run(config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "asymptotic.json").read_text())
    assert report["scalars"]["mean_chernoff"] == pytest.approx(0.0, abs=1e-12)
    assert report["scalars"]["d12"] == pytest.approx(0.0, abs=1e-12)
    assert report["scalars"]["d21"] == pytest.approx(0.0, abs=1e-12)


def test_run_finite_csv(tmp_path):
    config = parse_config(
        config_text(command="finite", t_grid=5, n_list=[1, 2], format="csv", r_list=[0.05])
    )
    assert run(config, out_dir=tmp_path) == 0
    lines = (tmp_path / "finite.csv").read_text().splitlines()
    assert lines[0] == "n,t,psi_n,psi_n_per_site"
    assert len(lines) == 1 + 2 * 5
    scalars = (tmp_path / "finite_scalars.csv").read_text().splitlines()
    assert scalars[0] == "name,value"
    assert any(row.startswith("config_digest,") for row in scalars)
    assert any(row.startswith("n=2/chernoff,") for row in scalars)


def test_finite_hoeffding_above_d21_is_exactly_zero(tmp_path):
    # q1 = 1.5 + 2 Re((0.3 + 0.2i) e^{ix}) against 2: at r = 0.05 > D21 the
    # supremum sits at t = 0, where psi_n is exactly 0
    q1 = [
        {"index": [0], "re": 1.5},
        {"index": [1], "re": 0.3, "im": 0.2},
        {"index": [-1], "re": 0.3, "im": -0.2},
    ]
    config = parse_config(config_text(command="finite", q1=q1, n_list=[1], t_grid=5, r_list=[0.05]))
    assert run(config, out_dir=tmp_path) == 0
    text = (tmp_path / "finite.json").read_text()
    assert json.loads(text)["scalars"]["n=1/rel_entropy_21"] < 0.05
    assert '"n=1/hoeffding[r=0.05]": 0.0,' in text


def test_run_simulate_and_cap_overflow(tmp_path):
    config = parse_config(
        config_text(command="simulate", n_list=[1, 2], fock_cutoff=12, t_grid=3)
    )
    assert run(config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "simulate.json").read_text())
    assert report["columns"] == ["n", "alpha", "beta", "e", "exponent", "trace_deficit"]
    assert len(report["rows"]) == 2

    config = parse_config(
        config_text(command="simulate", n_list=[9], fock_cutoff=40, t_grid=3)
    )
    assert run(config, out_dir=tmp_path) == 2


def test_numerical_failure_is_named(tmp_path, capsys):
    config = parse_config(
        config_text(command="simulate", n_list=[9], fock_cutoff=40, t_grid=3)
    )
    assert run(config, out_dir=tmp_path) == 2
    assert "SizeOverflow" in capsys.readouterr().err


def test_run_sweep(tmp_path):
    config = parse_config(config_text(command="sweep", n_list=[2, 4], t_grid=5))
    assert run(config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "sweep.json").read_text())
    gaps = [row[1] for row in report["rows"]]
    assert gaps[1] <= gaps[0] + 1e-12


def test_run_verify_passes(tmp_path, capsys):
    config = parse_config(config_text(command="verify", fock_cutoff=60))
    assert run(config, out_dir=tmp_path) == 0
    out = capsys.readouterr().out
    assert "check finite_vs_fock: PASS" in out
    assert "FAIL" not in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["scalars"]["failed"] == 0


def test_byte_identical_reruns(tmp_path):
    text = config_text(t_grid=11, r_list=[0.05], a_list=[0.0, 0.02])
    first = tmp_path / "a"
    second = tmp_path / "b"
    run(parse_config(text), out_dir=first)
    run(parse_config(text), out_dir=second)
    assert (first / "asymptotic.json").read_bytes() == (second / "asymptotic.json").read_bytes()


def test_emit_empty_table_and_roundtrip(tmp_path):
    report = {
        "command": "finite",
        "config_digest": "x" * 64,
        "bookkeeping": {"dense_cap": 4096},
        "columns": ["n", "t", "psi_n", "psi_n_per_site"],
        "rows": [],
        "scalars": {"n=1/chernoff": 0.25},
    }
    paths = emit(report, "csv", tmp_path / "out")
    assert (tmp_path / "out.csv").read_text() == "n,t,psi_n,psi_n_per_site\n"
    assert len(paths) == 2

    emit(report, "json", tmp_path / "out")
    assert json.loads((tmp_path / "out.json").read_text()) == report

    with pytest.raises(IoError):
        emit(report, "json", Path("/proc/definitely/not/writable/x"))


def test_main_entrypoint(tmp_path):
    cfg = tmp_path / "problem.json"
    cfg.write_text(config_text(t_grid=3))
    assert main([str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "asymptotic.json").exists()
    assert main([str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main([str(bad)]) == 1
    assert main([str(cfg), "--out", str(tmp_path), "--format", "csv"]) == 0
    assert (tmp_path / "asymptotic.csv").exists()


# 100000^3 grid nodes would take petabytes: both torus grids stop at the cap
DIM3 = dict(dim=3, q1={"0,0,0": 1.0}, q2={"0,0,0": 2.0})


def test_oversized_quadrature_grid_is_named(tmp_path, capsys):
    config = parse_config(config_text(quadrature_points=100000, **DIM3))
    assert run(config, out_dir=tmp_path) == 2
    assert "SizeOverflow" in capsys.readouterr().err


def test_oversized_symbol_grid_is_named(tmp_path, capsys):
    cfg = tmp_path / "problem.json"
    cfg.write_text(config_text(symbol_grid=100000, **DIM3))
    assert main([str(cfg), "--out", str(tmp_path)]) == 1
    assert "SizeOverflow" in capsys.readouterr().err


def test_far_coefficient_default_grid_is_named():
    # the default validation grid would have 2 * 10**15 + 1 points
    with pytest.raises(SizeOverflow):
        make_trig_symbol(1, {0: 2.0, 10**15: 0.5})


def test_asymptotic_hoeffding_above_d21_is_exactly_zero(tmp_path):
    # q1 = 1.5 + 2 Re((0.3 + 0.2i) e^{ix}) against 2: d21 = 0.0910, so at
    # r = 0.1 the supremum sits at t = 0, where psi is exactly 0
    q1 = [
        {"index": [0], "re": 1.5},
        {"index": [1], "re": 0.3, "im": 0.2},
        {"index": [-1], "re": 0.3, "im": -0.2},
    ]
    config = parse_config(config_text(q1=q1, t_grid=5, r_list=[0.1], a_list=[0.0]))
    assert run(config, out_dir=tmp_path) == 0
    text = (tmp_path / "asymptotic.json").read_text()
    assert json.loads(text)["scalars"]["d21"] < 0.1
    assert '"hoeffding[r=0.1]": 0.0,' in text


# (q1, q2) pairs of one state: 1 + 0.5 cos x, the constant 1, and
# 1 + 0.5 cos x against itself written with an explicit zero coefficient
IDENTICAL = [
    ({"0": 1.0, "1": 0.25, "-1": 0.25},) * 2,
    ({"0": 1.0},) * 2,
    ({"0": 1.0, "1": 0.25, "-1": 0.25}, {"0": 1.0, "1": 0.25, "-1": 0.25, "2": 0.0}),
]


@pytest.mark.parametrize("q", IDENTICAL)
def test_identical_states_report_exact_zeros(tmp_path, q):
    common = dict(q1=q[0], q2=q[1], n_list=[2], t_grid=5, r_list=[0.0, 0.05])
    assert run(parse_config(config_text(**common)), out_dir=tmp_path) == 0
    assert '"mean_chernoff": 0.0,' in (tmp_path / "asymptotic.json").read_text()
    assert run(parse_config(config_text(command="finite", **common)), out_dir=tmp_path) == 0
    text = (tmp_path / "finite.json").read_text()
    assert '"n=2/chernoff": 0.0,' in text
    assert '"n=2/rel_entropy_12": 0.0,' in text


@pytest.mark.parametrize("q", IDENTICAL)
def test_verify_passes_on_identical_states(tmp_path, capsys, q):
    config = parse_config(config_text(command="verify", q1=q[0], q2=q[1]))
    assert run(config, out_dir=tmp_path) == 0
    assert "check psi_second_fd: PASS (curvature is zero" in capsys.readouterr().out


def test_reports_are_the_class_method_values(tmp_path):
    """A displaced dim-2 pair with complex coefficients: every finite and
    asymptotic report value is the value of the class method it names."""
    doc = dict(
        dim=2,
        q1={"0,0": 1.2, "1,0": {"re": 0.2, "im": 0.15}, "0,1": {"re": 0.1, "im": -0.2}},
        q2={"0,0": 2.0, "1,1": {"re": 0.3, "im": 0.25}},
        y1=[{"site": [1, 0], "re": 0.3, "im": 0.1}],
        y2=[{"site": [0, 1], "re": -0.2, "im": 0.4}],
        n_list=[2],
        t_grid=4,
        r_list=[0.0, 0.05],
        a_list=[0.0, 0.05],
    )
    config = parse_config(config_text(command="finite", **doc))
    assert run(config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "finite.json").read_text())
    fp = FiniteProblem(config.problem, 2)
    ts = np.linspace(0.0, 1.0, 4)
    assert report["rows"] == [[2, t, fp.psi(t), fp.psi(t) / 4] for t in ts]
    chernoff, t_star = fp.chernoff()
    assert report["scalars"] == {
        "n=2/chernoff": chernoff,
        "n=2/t_star": t_star,
        "n=2/hoeffding[r=0]": fp.hoeffding(0.0),
        "n=2/hoeffding[r=0.05]": fp.hoeffding(0.05),
        "n=2/rel_entropy_12": fp.relative_entropy("12"),
        "n=2/rel_entropy_21": fp.relative_entropy("21"),
    }
    assert min(report["scalars"].values()) > 0

    config = parse_config(config_text(command="asymptotic", **doc))
    assert run(config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "asymptotic.json").read_text())
    ap = AsymptoticProblem(config.problem, make_rule(2))
    assert report["rows"] == [[t, ap.psi(t)] for t in ts]
    chernoff, t_star = ap.mean_chernoff()
    assert report["scalars"] == {
        "mean_chernoff": chernoff,
        "t_star": t_star,
        "d12": ap.dpsi_boundary("left_at_1"),
        "d21": -ap.dpsi_boundary("right_at_0"),
        "hoeffding[r=0]": ap.mean_hoeffding(0.0),
        "hoeffding[r=0.05]": ap.mean_hoeffding(0.05),
        "polar[a=0]": ap.polar(0.0),
        "polar[a=0.05]": ap.polar(0.05),
    }
    assert min(report["scalars"].values()) > 0

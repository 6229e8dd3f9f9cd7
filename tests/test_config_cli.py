import json
import re
from pathlib import Path

import numpy as np
import pytest

from nlhj import config, harness, kernels, operators, solver
from nlhj.cli import main
from nlhj.config import execute, parse_config
from nlhj.errors import ParseError, ValidationError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
[domain]
dimension = 1
lower = -1
upper = 1

[kernel]
type = fractional_laplacian
alpha = 0.5

[hamiltonian]
family = coercive
m = 1.0
a1 = 1
lam = 1
f = 0

[data]
u0 = 1 - x^2
phi = 0

[scheme]
h = 0.03125
theta = 0.9
T = 0.25
snapshot_dt = 0.125

[experiment]
name = run

[output]
directory = {out}
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_roundtrip(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL.format(out=tmp_path / "out")))
    assert cfg.domain.dim == 1
    assert cfg.kernel.alpha == 0.5
    assert cfg.spec.family == "coercive"
    assert cfg.experiment == "run"
    assert cfg.r_max == pytest.approx(8.0)  # 4 * diameter default


def test_missing_kernel_section_is_parse_error(tmp_path):
    bad = MINIMAL.format(out=tmp_path).replace("[kernel]", "[kernell]")
    with pytest.raises(ParseError):
        parse_config(write(tmp_path, bad))


def test_validation_collects_all_errors(tmp_path):
    bad = MINIMAL.format(out=tmp_path)
    bad = bad.replace("alpha = 0.5", "alpha = 3.0")
    bad = bad.replace("u0 = 1 - x^2", "u0 = 1 + )")
    bad = bad.replace("theta = 0.9", "theta = 1.7")
    with pytest.raises(ValidationError) as ei:
        parse_config(write(tmp_path, bad))
    msgs = ei.value.problems
    assert len(msgs) >= 3
    assert any("alpha" in m for m in msgs)
    assert any("u0" in m for m in msgs)
    assert any("theta" in m for m in msgs)


def test_superfractional_gate_named(tmp_path):
    bad = MINIMAL.format(out=tmp_path)
    bad = bad.replace("name = run", "name = coercive_loss")
    bad = bad.replace("m = 1.0", "m = 0.4")
    with pytest.raises(ValidationError) as ei:
        parse_config(write(tmp_path, bad))
    assert any("(A1)" in m for m in ei.value.problems)


def test_execute_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write(tmp_path, MINIMAL.format(out=out)))
    status = execute(cfg)
    assert status == 0
    assert (out / "manifest.json").exists()
    assert (out / "report.tsv").exists()
    assert (out / "trace_gaps.tsv").exists()
    fields = sorted(out.glob("field_t*.tsv"))
    assert fields
    m = json.loads((out / "manifest.json").read_text())
    assert m["passed"] and m["exit_status"] == 0
    assert {"H0", "H1", "H2"} <= set(m["certificates"])


def test_execute_certificate_failure_exits_2(tmp_path):
    for name in ("rate", "large_time"):
        text = MINIMAL.format(out=tmp_path / name)
        text = text.replace("name = run", f"name = {name}")
        text = text.replace("lam = 1", "lam = -20")  # (H2') fails
        text = text.replace("phi = 0", "phi = 0\nphi_limit = 0")
        cfg = parse_config(write(tmp_path, text, f"{name}.cfg"))
        assert execute(cfg) == 2
        m = json.loads((tmp_path / name / "manifest.json").read_text())
        assert "PreconditionError" in m["error"]


@pytest.mark.parametrize("key, value, error", [
    # inf at the core node x = 0, refused without a RuntimeWarning
    pytest.param("u0", "1/x", "ValidationError",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # inf at the exterior node x = 2, refused before the load's transform
    pytest.param("phi", "1/(x - 2)", "ValidationError",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    ("a1", "-1", "PreconditionError"),        # no positive lower bound
])
def test_refused_data_exit_2(tmp_path, key, value, error):
    out = tmp_path / "out"
    text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}",
                  MINIMAL.format(out=out))
    text = text.replace("h = 0.03125", "h = 0.0625\nr_max = 4")
    assert main(["run", str(write(tmp_path, text))]) == 2
    m = json.loads((out / "manifest.json").read_text())
    assert m["error"].startswith(error) and key in m["error"]


def test_execute_blowup_exits_1(tmp_path):
    text = MINIMAL.format(out=tmp_path / "out3")
    text = text.replace("family = coercive", "family = bellman")
    text = text.replace("m = 1.0\na1 = 1\nlam = 1\nf = 0",
                        "controls = 1\nlam_1 = -6\nb_1 = 0\nf_1 = 0")
    text = text.replace("T = 0.25", "T = 20.0\nm_cap = 4.0")
    cfg = parse_config(write(tmp_path, text, "blow.cfg"))
    assert execute(cfg) == 1
    m = json.loads((tmp_path / "out3" / "manifest.json").read_text())
    assert "BlowUp" in m["error"]


def test_cli_run_and_check_and_oracle(tmp_path, capsys):
    p = write(tmp_path, MINIMAL.format(out=tmp_path / "cli_out"))
    assert main(["run", str(p)]) == 0
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "H2" in out
    assert main(["oracle", str(p)]) == 0
    out = capsys.readouterr().out
    assert "exterior_mass_closed_form_at_center" in out
    # the oracle's closed form for this config is the constant 4
    line = [l for l in out.splitlines() if l.startswith("exterior_mass")][0]
    assert float(line.split("\t")[1]) == pytest.approx(4.0)


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    bad = MINIMAL.format(out=tmp_path).replace("alpha = 0.5", "alpha = oops")
    p = write(tmp_path, bad, "bad.cfg")
    assert main(["run", str(p)]) == 2


def test_r_cut_is_refused(tmp_path, capsys):
    bad = MINIMAL.format(out=tmp_path).replace("theta = 0.9",
                                               "theta = 0.9\nr_cut = 0.25")
    p = write(tmp_path, bad, "r_cut.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    assert any("r_cut" in m for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert "r_cut" in capsys.readouterr().err


def test_shipped_configs_parse():
    paths = sorted(CONFIGS.glob("*.cfg"))
    assert paths
    for path in paths:
        assert parse_config(path).experiment in config.EXPERIMENTS, path.name


def test_execute_discretizes_once(tmp_path, monkeypatch):
    text = (CONFIGS / "rate_nonlocal.cfg").read_text().replace(
        "directory = out_rate", f"directory = {tmp_path / 'out'}")
    builds = []
    real = kernels.build_quadrature

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    # every module that could look the name up, in case one imports it
    for mod in (kernels, harness, config, operators, solver):
        if hasattr(mod, "build_quadrature"):
            monkeypatch.setattr(mod, "build_quadrature", counted)
    plans = []
    real_init = operators.SweepPlan.__init__

    def counted_init(self, *args, **kwargs):
        plans.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(operators.SweepPlan, "__init__", counted_init)
    assert execute(parse_config(write(tmp_path, text, "rate.cfg"))) == 0
    assert len(builds) == 1
    assert len(plans) == 1


def test_boundary_refinement_keeps_scheme_settings(tmp_path):
    # every refinement runs with the [scheme] settings, max_steps included
    text = (CONFIGS / "boundary_loss.cfg").read_text().replace(
        "directory = out_boundary", f"directory = {tmp_path / 'out'}")
    text = text.replace("snapshot_dt = 0.5", "snapshot_dt = 0.5\nmax_steps = 3")
    assert execute(parse_config(write(tmp_path, text, "steps.cfg"))) == 1
    m = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "NonConvergence" in m["error"]


def test_boundary_behavior_single_run(tmp_path):
    # without h_list: one run at the [scheme] spacing, whose tables are the
    # trace gaps and the boundary classification
    text = (CONFIGS / "boundary_loss.cfg").read_text().replace(
        "directory = out_boundary", f"directory = {tmp_path / 'out'}")
    text = re.sub(r"(?m)^h_list = .*\n", "", text)
    assert execute(parse_config(write(tmp_path, text, "single.cfg"))) == 0
    out = tmp_path / "out"
    assert (out / "trace_gaps.tsv").exists()
    assert (out / "classification.tsv").exists()
    m = json.loads((out / "manifest.json").read_text())
    assert {"UE", "Sigma", "L"} <= set(m["certificates"])


def test_comparison_config_runs(tmp_path):
    text = MINIMAL.format(out=tmp_path / "cmp_out")
    text = text.replace("name = run", "name = comparison\nseeds = 2")
    text = text.replace("T = 0.25", "T = 0.125")
    cfg = parse_config(write(tmp_path, text, "cmp.cfg"))
    assert execute(cfg) == 0
    m = json.loads((tmp_path / "cmp_out" / "manifest.json").read_text())
    assert m["metrics"]["max_violation"] <= 1e-12


def test_reproducible_reports(tmp_path):
    # same config, two executions: bit-identical report tables
    for d in ("rep_a", "rep_b"):
        text = MINIMAL.format(out=tmp_path / d)
        text = text.replace("name = run", "name = comparison\nseeds = 2")
        text = text.replace("T = 0.25", "T = 0.125")
        cfg = parse_config(write(tmp_path, text, f"{d}.cfg"))
        assert execute(cfg) == 0
    a = (tmp_path / "rep_a" / "report.tsv").read_bytes()
    b = (tmp_path / "rep_b" / "report.tsv").read_bytes()
    assert a == b


def test_2d_config(tmp_path):
    text = MINIMAL.format(out=tmp_path / "out2d")
    text = text.replace("dimension = 1", "dimension = 2")
    text = text.replace("lower = -1", "lower = -1 -1")
    text = text.replace("upper = 1", "upper = 1 1")
    text = text.replace("h = 0.03125", "h = 0.125\nr_max = 2.0")
    text = text.replace("u0 = 1 - x^2", "u0 = (1 - x^2)*(1 - y^2)")
    cfg = parse_config(write(tmp_path, text, "run2d.cfg"))
    assert cfg.domain.dim == 2
    assert execute(cfg) == 0


@pytest.mark.parametrize("section, key, value", [
    ("hamiltonian", "f", "nan"),
    ("hamiltonian", "f", "1e400*x"),
    ("hamiltonian", "b", "-inf"),
    ("data", "phi", "inf"),
    ("data", "u0", "1e400"),
    ("scheme", "T", "inf"),
    ("scheme", "h", "nan"),
    ("scheme", "dt", "-inf"),
    ("domain", "lower", "nan"),
    ("domain", "upper", "1e400"),
    ("experiment", "phi_scales", "1 inf"),
])
def test_non_finite_numbers_refused(tmp_path, capsys, section, key, value):
    out = tmp_path / "out"
    text = re.sub(rf"(?m)^{key} = .*\n", "", MINIMAL.format(out=out))
    text = text.replace(f"[{section}]", f"[{section}]\n{key} = {value}", 1)
    p = write(tmp_path, text, "bad.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    assert any(f"[{section}] {key}" in m for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("hamiltonian", "f", "y"),
    ("hamiltonian", "b", "0.5*y"),
    ("data", "u0", "1 - y^2"),
    ("data", "phi", "sin(x + y)"),
    ("data", "phi_limit", "y"),
    ("experiment", "f_limit", "x*y"),
])
def test_y_refused_in_1d_expression(tmp_path, capsys, section, key, value):
    out = tmp_path / "out"
    text = MINIMAL.format(out=out)
    text = re.sub(rf"(?m)^{key} = .*\n", "", text)
    text = text.replace(f"[{section}]", f"[{section}]\n{key} = {value}", 1)
    p = write(tmp_path, text, "y.cfg")
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key}" in err and "'y'" in err
    assert not out.exists()


def test_run_snapshots_hold_core_rows(tmp_path):
    # one row per core node: coordinates and the upper envelope of the
    # state and a t-dependent datum, as the full-grid field gives them
    out = tmp_path / "out"
    text = MINIMAL.format(out=out)
    text = text.replace("dimension = 1", "dimension = 2")
    text = text.replace("lower = -1", "lower = -1 -1")
    text = text.replace("upper = 1", "upper = 1 1")
    text = text.replace("h = 0.03125", "h = 0.125\nr_max = 2.0")
    text = text.replace("u0 = 1 - x^2", "u0 = (1 - x^2)*(1 - y^2)")
    text = text.replace("phi = 0", "phi = 1 + 0.2*sin(x - y)*exp(-t)")
    cfg = parse_config(write(tmp_path, text, "snap.cfg"))
    assert execute(cfg) == 0
    plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h, cfg.r_max)
    grid = plan.grid
    st = solver.init_state(plan, cfg.spec, cfg.phi, cfg.u0, cfg.scheme)
    rep = solver.run_to_time(st, cfg.scheme, cfg.scheme.T)
    files = sorted(out.glob("field_t*.tsv"))
    assert len(files) == len(rep.snapshots) == 3
    for path, (t, u) in zip(files, rep.snapshots):
        values = operators.Field(grid, u, cfg.phi, t).values[grid.core_flat]
        rows = ["\t".join(f"{v:.17g}" for v in (*p, v))
                for p, v in zip(grid.core_points, values)]
        lines = path.read_text().splitlines()
        assert lines[0].startswith(f"# t={t:.17g} h=0.125")
        assert lines[1:] == rows


def test_run_manifest_reports_solver_telemetry(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write(tmp_path, MINIMAL.format(out=out)))
    assert execute(cfg) == 0
    m = json.loads((out / "manifest.json").read_text())
    tel = m["telemetry"]
    assert set(tel) == {"steps", "dt_min", "dt_max", "cfl_denominator",
                        "sigma_growth"}
    assert tel["steps"] == m["steps"] > 0
    assert tel["sigma_growth"] == 0
    # time-independent data: every full step takes theta / denominator, and
    # steps shortened to land on a snapshot time are shorter
    assert tel["dt_max"] == pytest.approx(cfg.scheme.theta / tel["cfl_denominator"])
    assert 0.0 < tel["dt_min"] <= tel["dt_max"]
    header = (out / "report.tsv").read_text().splitlines()[0]
    assert header == "t\tsup_norm"


def test_large_time_refuses_a_limit_that_depends_on_t(tmp_path):
    # f_limit freezes f only: a t-dependent lam leaves no steady limit
    text = MINIMAL.format(out=tmp_path / "out")
    text = text.replace("name = run", "name = large_time\nt_ladder = 1 2\n"
                        "f_limit = 0")
    text = text.replace("lam = 1", "lam = 1 + exp(-t)")
    text = text.replace("phi = 0", "phi = 0\nphi_limit = 0")
    cfg = parse_config(write(tmp_path, text, "lt.cfg"))
    with pytest.raises(ValidationError):
        config._limit_spec(cfg)
    assert execute(cfg) == 2


def test_large_time_runs_without_T(tmp_path):
    # the ladder sets the horizons, so [scheme] T is not required
    text = MINIMAL.format(out=tmp_path / "out").replace("T = 0.25\n", "")
    text = text.replace("name = run", "name = large_time\nt_ladder = 1 2")
    text = text.replace("phi = 0", "phi = 0\nphi_limit = 0")
    cfg = parse_config(write(tmp_path, text, "lt.cfg"))
    assert cfg.scheme.T is None
    assert execute(cfg) == 0

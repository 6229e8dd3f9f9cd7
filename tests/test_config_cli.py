import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlhj import config, harness, kernels, operators, solver
from nlhj.cli import main
from nlhj.config import execute, parse_config
from nlhj.errors import ParseError, ValidationError
from nlhj.geometry import Domain, Grid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
WORKLOADS = CONFIGS.parent / "perfbench" / "workloads.py"

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
    # past the cap 1e3 (1 + sup|u0| + sup|phi|) = 2e3 well before T
    text = text.replace("T = 0.25", "T = 20.0")
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
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "parse error: config file not found" in capsys.readouterr().err


def test_cli_check_exits_2_on_a_failing_certificate(tmp_path, capsys):
    # u0 = 1 against the datum 0 at the trace: (H0) fails
    text = MINIMAL.format(out=tmp_path / "out").replace("u0 = 1 - x^2",
                                                        "u0 = 1")
    assert main(["check", str(write(tmp_path, text))]) == 2
    assert "H0\tFAIL\tvalue=1\n" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_r_cut_is_refused(tmp_path, capsys):
    bad = MINIMAL.format(out=tmp_path).replace("theta = 0.9",
                                               "theta = 0.9\nr_cut = 0.25")
    p = write(tmp_path, bad, "r_cut.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    assert any("r_cut" in m for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert "r_cut" in capsys.readouterr().err


def test_shipped_configs_parse(tmp_path, monkeypatch):
    paths = sorted(CONFIGS.glob("*.cfg"))
    assert paths
    # and the benchmark's generated configs, so that a key the config schema
    # refuses fails here instead of failing every benchmark run
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    for make in (workloads.bellman_2d, workloads.large_time_1d):
        for seed in (0, 1):
            workdir = tmp_path / f"{make.__name__}-{seed}"
            workdir.mkdir()
            make(seed, workdir)
            generated = sorted(workdir.glob("*.cfg"))
            assert len(generated) == 1
            paths += generated
    for path in paths:
        assert parse_config(path).experiment in config.EXPERIMENTS, path


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



@pytest.mark.parametrize("name", ["rate_nonlocal", "boundary_loss"])
def test_manifest_times_each_phase(tmp_path, name):
    # the manifest times discretize, certificates, experiment and tables on
    # a clock that never jumps; the phases follow one another inside the
    # run's wall time, and no timing reaches a report table
    text = re.sub(r"(?m)^directory = .*$", f"directory = {tmp_path / 'out'}",
                  (CONFIGS / f"{name}.cfg").read_text())
    assert execute(parse_config(write(tmp_path, text, "timed.cfg"))) == 0
    m = json.loads((tmp_path / "out" / "manifest.json").read_text())
    phases = m["phase_s"]
    assert list(phases) == ["certificates", "discretize", "experiment",
                            "tables"]  # sorted by json.dump
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= m["wall_time_s"]
    for table in (tmp_path / "out").glob("*.tsv"):
        assert "phase" not in table.read_text()


@pytest.mark.parametrize("r_max", ["", "r_max = 0.5\n"])
def test_manifest_records_the_sweep_transform_length(tmp_path, r_max):
    # the manifest records the core sweep's transform length per axis, 2
    # n_core where the stencil spans the core (J = 128 >= n_core = 64) and
    # n_core + J + 1 rounded up to a 5-smooth length where it does not
    out = tmp_path / "out"
    text = MINIMAL.format(out=out).replace("[experiment]",
                                           r_max + "[experiment]")
    cfg = parse_config(write(tmp_path, text))
    assert execute(cfg) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["sweep_fft"] == [128 if not r_max else 81]
    for table in out.glob("*.tsv"):
        assert "sweep_fft" not in table.read_text()


def test_boundary_refinement_keeps_scheme_settings(tmp_path):
    # every refinement runs with the [scheme] settings, max_steps included
    text = (CONFIGS / "boundary_loss.cfg").read_text().replace(
        "directory = out_boundary", f"directory = {tmp_path / 'out'}")
    text = text.replace("snapshot_dt = 0.5", "snapshot_dt = 0.5\nmax_steps = 3")
    assert execute(parse_config(write(tmp_path, text, "steps.cfg"))) == 1
    m = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "NonConvergence" in m["error"]


def test_boundary_refinement_fails_when_one_spacing_fails(tmp_path,
                                                         monkeypatch):
    # the verdict is that of every spacing in h_list, not a constant
    real = harness.boundary_behavior_experiment

    def fails_at_finest(spec, dom, k, phi, u0, T, cfg, r_max=None):
        res = real(spec, dom, k, phi, u0, T, cfg, r_max=r_max)
        res.passed = res.passed and cfg.h != 0.0078125
        return res

    monkeypatch.setattr(harness, "boundary_behavior_experiment",
                        fails_at_finest)
    out = tmp_path / "out"
    text = (CONFIGS / "boundary_loss.cfg").read_text().replace(
        "directory = out_boundary", f"directory = {out}")
    assert execute(parse_config(write(tmp_path, text, "fails.cfg"))) == 1
    m = json.loads((out / "manifest.json").read_text())
    assert m["passed"] is False and (out / "report.tsv").exists()


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
    text = text.replace("T = 0.25\nsnapshot_dt = 0.125", "T = 0.125")
    cfg = parse_config(write(tmp_path, text, "cmp.cfg"))
    assert execute(cfg) == 0
    m = json.loads((tmp_path / "cmp_out" / "manifest.json").read_text())
    assert m["metrics"]["max_violation"] <= 1e-12


def test_reproducible_reports(tmp_path):
    # same config, two executions: bit-identical report tables
    for d in ("rep_a", "rep_b"):
        text = MINIMAL.format(out=tmp_path / d)
        text = text.replace("name = run", "name = comparison\nseeds = 2")
        text = text.replace("T = 0.25\nsnapshot_dt = 0.125", "T = 0.125")
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
    st = solver.init_state(plan, cfg.spec, cfg.phi, cfg.u0)
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
    assert tel["steps"] == m["metrics"]["steps"] > 0
    assert tel["sigma_growth"] == 0
    # time-independent data: every full step takes theta / denominator, and
    # steps shortened to land on a snapshot time are shorter
    assert tel["dt_max"] == pytest.approx(cfg.scheme.theta / tel["cfl_denominator"])
    assert 0.0 < tel["dt_min"] <= tel["dt_max"]
    header = (out / "report.tsv").read_text().splitlines()[0]
    assert header == "t\tsup_norm"


@pytest.mark.parametrize("template", ["minimal", "bellman"])
def test_comparison_manifest_reports_solver_telemetry(tmp_path, template):
    # steps summed over the pairs, the largest shared viscosity (none for
    # Bellman forms) and the viscosity growths summed; the report table is
    # unchanged
    out = tmp_path / "out"
    text = TEMPLATES[template].format(out=out)
    text = text.replace("name = run", "name = comparison\nseeds = 2")
    text = text.replace("T = 0.25\nsnapshot_dt = 0.125", "T = 0.125")
    cfg = parse_config(write(tmp_path, text, "cmp.cfg"))
    assert execute(cfg) == 0
    m = json.loads((out / "manifest.json").read_text())
    results = [harness.comparison_experiment(
        cfg.spec, cfg.domain, cfg.kernel, pair[:2], pair[2:], cfg.scheme.T,
        cfg.scheme, r_max=cfg.r_max)
        for pair in (harness.random_ordered_pair(s, cfg.domain)
                     for s in range(2))]
    pairs = [r.metrics for r in results]
    assert m["telemetry"] == {
        "steps": pairs[0]["steps"] + pairs[1]["steps"],
        "sigma": 2.0 if template == "minimal" else None,   # 1 + a1 at m = 1
        "sigma_growth": 0}
    assert m["telemetry"]["steps"] > 0
    # the last column is each pair's largest signed max(u - v) over its steps
    gaps = [max(v for _, v in r.tables["report"][1]) for r in results]
    assert all(g < 0 for g in gaps)
    assert (out / "report.tsv").read_text().splitlines() == [
        "seed\tmax_violation\tmax_u_minus_v",
        "0\t0\t%.17g" % gaps[0], "1\t0\t%.17g" % gaps[1]]


def test_comparison_telemetry_counts_viscosity_growths(tmp_path):
    # one given pair whose datum ramps up fast: the shared viscosity grows
    # as the pair steps, and the telemetry reports the growths
    out = tmp_path / "out"
    text = MINIMAL.format(out=out).replace("m = 1.0", "m = 2.0")
    text = text.replace("u0 = 1 - x^2\nphi = 0", "u0 = 0\nphi = 20*t")
    text = text.replace("name = run", "name = comparison\nu0_b = 0.1\n"
                        "phi_b = 20*t + 0.1")
    text = text.replace("snapshot_dt = 0.125\n", "")
    assert execute(parse_config(write(tmp_path, text, "ramp.cfg"))) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["metrics"]["sigma_growth"] >= 1
    assert m["telemetry"] == {key: m["metrics"][key]
                              for key in ("steps", "sigma", "sigma_growth")}


def test_comparison_stops_past_max_steps(tmp_path):
    # as a run does: a pair whose states pass [scheme] max_steps fails
    out = tmp_path / "out"
    text = (CONFIGS / "comparison.cfg").read_text().replace(
        "directory = out_comparison", f"directory = {out}")
    text = text.replace("seeds = 20", "seeds = 2")
    text = text.replace("T = 1.0", "T = 1.0\nmax_steps = 3")
    assert execute(parse_config(write(tmp_path, text, "cmp.cfg"))) == 1
    m = json.loads((out / "manifest.json").read_text())
    assert m["error"] == ("NonConvergence: comparison pair: exceeded 3 "
                          "steps before T")
    assert "passed" not in m and not (out / "report.tsv").exists()


def test_large_time_refuses_a_limit_that_depends_on_t(tmp_path, capsys):
    # f_limit freezes f only: a t-dependent lam leaves no steady limit,
    # refused at parse time, before the output directory exists
    out = tmp_path / "out"
    text = MINIMAL.format(out=out)
    text = text.replace("name = run", "name = large_time\nt_ladder = 1 2\n"
                        "f_limit = 0")
    text = text.replace("lam = 1", "lam = 1 + exp(-t)")
    text = text.replace("phi = 0", "phi = 0\nphi_limit = 0")
    p = write(tmp_path, text, "lt.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    assert ei.value.problems == [
        "[hamiltonian] lam depends on t, but name = large_time solves for a "
        "steady state (f_limit sets the limit of the coercive f only)"]
    assert main(["run", str(p)]) == 2
    assert "f_limit sets the limit" in capsys.readouterr().err
    assert not out.exists()
    # a t-dependent f that f_limit freezes is accepted
    frozen = text.replace("lam = 1 + exp(-t)", "lam = 1").replace(
        "f = 0\n", "f = exp(-t)\n", 1)
    assert parse_config(write(tmp_path, frozen, "ok.cfg")).spec.time_dependent


def test_parsing_a_config_twice_reuses_its_plan(tmp_path):
    # equal kernels compare equal, indicator kernels of one radius too, so
    # the same problem parsed twice is discretized once
    shipped = CONFIGS / "rate_nonlocal.cfg"
    indicator = write(tmp_path, shipped.read_text().replace(
        "type = fractional_laplacian", "type = indicator\nrho = 0.5"))
    for path in (shipped, indicator):
        plans = [harness.discretize(c.domain, c.kernel, c.scheme.h, c.r_max)
                 for c in (parse_config(path) for _ in range(2))]
        assert plans[0] is plans[1]


def test_steady_run_reports_its_residuals(tmp_path):
    # steady = true stands in for T: the report holds the residual of each
    # step, and the last one is below the steady tolerance; the steady
    # state is the run's one snapshot, so field_t0000.tsv holds its
    # envelope and trace_gaps.tsv phi - u at each trace node at t = 0
    out = tmp_path / "out"
    text = MINIMAL.format(out=out).replace("T = 0.25\nsnapshot_dt = 0.125",
                                           "steady = true\nsteady_tol = 1e-8")
    text = text.replace("phi = 0", "phi = 0.5 + 0.2*x")
    path = write(tmp_path, text, "steady.cfg")
    assert main(["run", str(path)]) == 0
    m = json.loads((out / "manifest.json").read_text())
    lines = (out / "report.tsv").read_text().splitlines()
    assert lines[0] == "step\tresidual"
    assert len(lines) - 1 == m["metrics"]["steps"] > 1
    assert [int(l.split("\t")[0]) for l in lines[1:]] == \
        list(range(m["metrics"]["steps"]))
    assert float(lines[-1].split("\t")[1]) <= 1e-8

    cfg = parse_config(path)
    plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h, cfg.r_max)
    grid = plan.grid
    st = solver.init_state(plan, cfg.spec, cfg.phi, cfg.u0)
    st, rep = solver.run_to_steady(st, cfg.scheme)
    assert [(t, u.tobytes()) for t, u in rep.snapshots] == \
        [(0.0, st.u.tobytes())]
    assert [f.name for f in out.glob("field_t*.tsv")] == ["field_t0000.tsv"]
    values = operators.Field(grid, st.u, cfg.phi, 0.0).values[grid.core_flat]
    rows = ["\t".join(f"{v:.17g}" for v in (*p, v))
            for p, v in zip(grid.core_points, values)]
    assert (out / "field_t0000.tsv").read_text().splitlines()[1:] == rows
    gaps = cfg.phi(grid.trace_points, 0.0) - st.u[grid.trace_pos]
    assert (out / "trace_gaps.tsv").read_text().splitlines() == \
        ["x\tt\tgap"] + [f"{x:.17g}\t0\t{g:.17g}" for (x,), g in
                          zip(grid.trace_points, gaps)]


def test_coercive_loss_config_reports_its_viscosities(tmp_path):
    # a run of the coercive_loss experiment writes one row per datum scale,
    # and its manifest each scale's final viscosity, which a larger datum
    # enlarges, and the growths that sized it
    out = tmp_path / "out"
    text = MINIMAL.format(out=out).replace("T = 0.25\nsnapshot_dt = 0.125\n",
                                           "steady_tol = 1e-4\n")
    text = text.replace("m = 1.0", "m = 2.0")
    text = text.replace("h = 0.03125", "h = 0.0625\nr_max = 4")
    text = text.replace("name = run", "name = coercive_loss")
    assert main(["run", str(write(tmp_path, text, "loss.cfg"))]) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert {"A1", "H0", "H1", "H2"} <= set(m["certificates"])
    lines = (out / "report.tsv").read_text().splitlines()
    assert lines[0] == "phi_scale\tholder_quotient\tsup_norm\tsteps"
    assert [l.split("\t")[0] for l in lines[1:]] == ["1", "10", "100"]
    tel = m["telemetry"]
    assert set(tel) == {"sigma", "sigma_growth"}
    assert len(tel["sigma"]) == len(tel["sigma_growth"]) == 3
    assert 0 < tel["sigma"][0] < tel["sigma"][1] < tel["sigma"][2]
    assert all(isinstance(g, int) and g >= 0 for g in tel["sigma_growth"])


def test_boundary_behavior_reports_steps_per_spacing(tmp_path):
    # telemetry only: one step count per spacing of h_list, a finer spacing
    # taking more steps; without h_list, the steps of the one run
    out = tmp_path / "out"
    text = (CONFIGS / "boundary_loss.cfg").read_text().replace(
        "directory = out_boundary", f"directory = {out}")
    assert execute(parse_config(write(tmp_path, text, "refine.cfg"))) == 0
    m = json.loads((out / "manifest.json").read_text())
    steps = m["telemetry"]["steps"]
    assert len(steps) == 2 and 0 < steps[0] < steps[1]
    text = re.sub(r"(?m)^h_list = .*\n", "", text)
    assert execute(parse_config(write(tmp_path, text, "single.cfg"))) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["telemetry"] == {"steps": steps[0]}


def test_bellman_large_time_config(tmp_path):
    # the Bellman form's data gaps: its coefficients do not move, so the
    # gaps are the datum's, 0.5 exp(-T) at each horizon
    out = tmp_path / "out"
    text = TEMPLATES["bellman"].format(out=out).replace(
        "phi = 0", "phi = 0.5*exp(-t)\nphi_limit = 0")
    text = text.replace("name = run", "name = large_time\nt_ladder = 1 2 4")
    assert execute(parse_config(write(tmp_path, text, "blt.cfg"))) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["metrics"]["data_gaps"] == pytest.approx(
        [0.5 * np.exp(-T) for T in (1, 2, 4)], rel=1e-12)
    assert m["passed"] and m["telemetry"]["steps"] > 0


@pytest.mark.parametrize("name", ["rate", "large_time"])
def test_steady_experiments_report_solver_telemetry(tmp_path, name):
    # the steps of the steady reference and of the time run, and the
    # reference's residual at exit, plus for rate the snapshots its fit
    # read; the report table is unchanged
    out = tmp_path / "out"
    text = MINIMAL.format(out=out).replace("phi = 0",
                                           "phi = 0.5*exp(-t)\nphi_limit = 0")
    text = text.replace("name = run", f"name = {name}\nt_ladder = 2 4 8"
                        if name == "large_time" else "name = rate")
    cfg = parse_config(write(tmp_path, text, f"{name}.cfg"))
    assert execute(cfg) == 0
    m = json.loads((out / "manifest.json").read_text())
    tel = m["telemetry"]
    assert set(tel) == {"steady_steps", "steady_residual", "steps"} | (
        {"fit_points"} if name == "rate" else set())
    assert tel["steady_steps"] > 0 and tel["steps"] > 0
    if name == "rate":
        assert tel["fit_points"] == m["metrics"]["fit_points"]
    # below the reference's steady tolerance, 1e-8 (1 + sup |u0|) at most
    assert 0.0 <= tel["steady_residual"] <= 2e-8
    table = "rate_curve" if name == "rate" else "report"
    header = (out / f"{table}.tsv").read_text().splitlines()[0]
    assert header == ("t\tdeviation\tbound\tg" if name == "rate"
                      else "T\tdeviation")


def test_large_time_runs_without_T(tmp_path):
    # the ladder sets the horizons, so [scheme] T is not required
    text = MINIMAL.format(out=tmp_path / "out").replace("T = 0.25\n", "")
    text = text.replace("name = run", "name = large_time\nt_ladder = 1 2")
    text = text.replace("phi = 0", "phi = 0\nphi_limit = 0")
    cfg = parse_config(write(tmp_path, text, "lt.cfg"))
    assert cfg.scheme.T is None
    assert execute(cfg) == 0


BELLMAN_2D = """
[domain]
dimension = 2
lower = -1 -1
upper = 1 1

[kernel]
type = fractional_laplacian
alpha = 0.5

[hamiltonian]
family = bellman
controls = 2
lam_1 = 1
b_1 = -x; -y
f_1 = 0
lam_2 = 0.5
b_2 = 0.5*x; 0.5*y
f_2 = 0

[data]
u0 = 1 + 0.5*(1 - x^2)*(1 - y^2)
phi = 1

[scheme]
h = 0.125
theta = 0.9
T = 0.125
r_max = 2

[experiment]
name = run

[output]
directory = {out}
"""

IMPORT_GUARD = """
import sys
from nlhj import config
status = config.execute(config.parse_config(sys.argv[1]))
print(status, "scipy.fft" in sys.modules, "scipy.integrate" in sys.modules)
"""


def test_run_imports_no_scipy(tmp_path):
    # a run and the CLI module load neither scipy.fft nor scipy.integrate:
    # each costs start-up time and resident memory that no run needs
    src = str(Path(config.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    p = write(tmp_path, BELLMAN_2D.format(out=tmp_path / "out"), "b2d.cfg")
    run = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(p)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0", "False", "False"]
    assert (tmp_path / "out" / "manifest.json").exists()
    cli = subprocess.run(
        [sys.executable, "-c", "import sys, nlhj.cli; "
         "print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert cli.stdout.split() == ["False"]


def test_bellman_2d_control_without_drift(tmp_path):
    # a 2-D control without b_i runs with a zero drift on each axis
    for name, drift in (("zero", "b_2 = 0; 0\n"), ("none", "")):
        text = BELLMAN_2D.format(out=tmp_path / name).replace(
            "b_2 = 0.5*x; 0.5*y\n", drift)
        cfg = parse_config(write(tmp_path, text, f"{name}.cfg"))
        assert not cfg.spec.time_dependent
        assert execute(cfg) == 0
    tables = sorted(p.name for p in (tmp_path / "zero").glob("*.tsv"))
    assert "report.tsv" in tables
    for name in tables:
        assert ((tmp_path / "zero" / name).read_bytes()
                == (tmp_path / "none" / name).read_bytes())


def test_run_builds_exterior_nodes_only_for_a_datum_varying_in_space(tmp_path):
    # the exterior node set spans the whole halo: a datum constant in space
    # never reads it
    for phi, built in (("1", False), ("1 + 0.5*(1 - x^2)*(1 - y^2)", True)):
        text = BELLMAN_2D.format(out=tmp_path / f"out-{built}").replace(
            "phi = 1\n", f"phi = {phi}\n")
        cfg = parse_config(write(tmp_path, text, "b2d.cfg"))
        # the run uses this plan, the last one discretized
        plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h,
                                  cfg.r_max)
        assert execute(cfg) == 0
        assert ("exterior_points" in plan.grid.__dict__) is built
        del plan


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0, 7, -3, np.float64(0.1),
           np.float64(-2.5e-7), 1e-300, 1e300, 1.0 / 3.0]


def _old_row(row):
    # each value formatted on its own, as the writers once did
    return "\t".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)


def test_writers_format_as_each_value_on_its_own(tmp_path):
    rows = [("tag", v, SPECIAL[-1 - i]) for i, v in enumerate(SPECIAL)]
    config._write_tsv(tmp_path / "t.tsv", ("a", "b", "c"), rows)
    lines = (tmp_path / "t.tsv").read_text().splitlines()
    assert lines == ["a\tb\tc"] + [_old_row(r) for r in rows]

    # trace-gap rows as a run builds them (x.., t, gap, as Python floats),
    # here with a text column after them
    pts = np.column_stack([SPECIAL, SPECIAL[::-1]]).tolist()
    rows = [(*p, t, v, "tag") for k, t in enumerate(
                (0, np.float64(0.25), 1e300, -0.0))
            for p, v in zip(pts, np.roll(np.array(SPECIAL, dtype=float),
                                         k).tolist())]
    config._write_tsv(tmp_path / "g.tsv", ("x", "x", "t", "gap", "tag"), rows)
    lines = (tmp_path / "g.tsv").read_text().splitlines()
    assert lines == ["x\tx\tt\tgap\ttag"] + [_old_row(r) for r in rows]
    # a steady run takes no snapshots: its trace gaps are the header alone
    config._write_tsv(tmp_path / "e.tsv", ("x", "t", "gap"), [])
    assert (tmp_path / "e.tsv").read_text() == "x\tt\tgap\n"

    g = Grid(Domain((0.0,), (11.0,)), 1.0, halo=1)
    assert len(g.core_flat) == len(SPECIAL)
    template = operators.row_template(operators.row_prefixes(g.core_points))
    operators.save_field(g, SPECIAL, 0.5, tmp_path / "f.tsv", 0.5, template)
    lines = (tmp_path / "f.tsv").read_text().splitlines()[1:]
    assert lines == [_old_row(r) for r in zip(g.core_points[:, 0],
                                              np.array(SPECIAL, dtype=float))]


@pytest.mark.parametrize("name, out", [("rate_nonlocal", "out_rate"),
                                       ("comparison", "out_comparison")])
def test_experiments_build_no_exterior_nodes_for_data_constant_in_space(
        tmp_path, name, out):
    # phi = 0 in both: the experiments' data checks read one exterior node;
    # two comparison seeds take the same path as twenty
    text = (CONFIGS / f"{name}.cfg").read_text().replace(
        f"directory = {out}", f"directory = {tmp_path / 'out'}")
    text = text.replace("seeds = 20", "seeds = 2")
    cfg = parse_config(write(tmp_path, text))
    assert not cfg.phi.varies_in_space
    plan = harness.discretize(cfg.domain, cfg.kernel, cfg.scheme.h, cfg.r_max)
    assert execute(cfg) == 0
    assert "exterior_points" not in plan.grid.__dict__


MEMORY_GUARD = """
import resource
from nlhj import harness, solver
from nlhj.geometry import Domain
from nlhj.hamiltonians import BellmanSpec, ControlLaw
from nlhj.kernels import fractional_laplacian_kernel
dom = Domain((-1.0, -1.0), (1.0, 1.0))
plan = harness.discretize(dom, fractional_laplacian_kernel(0.5, 2), 2.0 ** -6)
plan.exterior_mass
spec = BellmanSpec([ControlLaw(lam=1.0, b=["-x", "-y"], dim=2)], dim=2)
cfg = solver.SchemeConfig(h=2.0 ** -6, theta=0.9)
st = solver.init_state(plan, spec, 1.0, 1.0)
solver.step(st, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_2d_discretization_memory():
    # 2-D at h = 2^-6 with the default r_max (a halo of 724 nodes per side):
    # discretizing, the exterior mass and a Bellman step stay below 200 MB
    src = str(Path(config.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", MEMORY_GUARD], env=env,
                         capture_output=True, text=True, check=True)
    peak_mb = int(run.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB
    assert peak_mb < 200.0


def test_steady_must_be_a_boolean(tmp_path, capsys):
    out = tmp_path / "out"
    text = MINIMAL.format(out=out).replace("T = 0.25", "steady = maybe")
    p = write(tmp_path, text, "steady.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    assert any("[scheme] steady: not a boolean" in m
               for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert "[scheme] steady" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("table, refusal", [
    ("0.5 1.0\n", "[kernel] profile profile.txt: needs at least 2 rows"),
    ("0.1\n0.5\n1.0\n", "[kernel] profile profile.txt: needs at least 2 rows"),
    # np.interp reads the radii in order, and a value that is not finite
    # would blow up the run
    ("0 1\n1 nan\n", "[kernel] profile radii and values must be finite"),
    ("0 1\ninf 1\n", "[kernel] profile radii and values must be finite"),
    ("2 1\n0 1\n1 0\n", "[kernel] profile radii must increase strictly"),
    ("0 1\n1 1\n1 0\n", "[kernel] profile radii must increase strictly"),
])
def test_custom_radial_profile_needs_two_rows_of_two_columns(tmp_path,
                                                             capsys, table,
                                                             refusal):
    out = tmp_path / "out"
    (tmp_path / "profile.txt").write_text(table)
    text = MINIMAL.format(out=out).replace(
        "type = fractional_laplacian",
        "type = custom_radial\nprofile = profile.txt")
    p = write(tmp_path, text, "profile.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    assert any(m.startswith(refusal) for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert refusal in capsys.readouterr().err
    assert not out.exists()


def test_custom_radial_config_runs(tmp_path):
    # the constant profile 1 is the fractional Laplacian's K = 1: both runs
    # pass, and their final snapshots agree to quadrature accuracy
    (tmp_path / "profile.txt").write_text("0 1\n10 1\n")
    finals = []
    for kernel in ("type = fractional_laplacian",
                   "type = custom_radial\nprofile = profile.txt"):
        out = tmp_path / f"out{len(finals)}"
        text = MINIMAL.format(out=out).replace("type = fractional_laplacian",
                                               kernel)
        assert main(["run", str(write(tmp_path, text))]) == 0
        finals.append(np.loadtxt(sorted(out.glob("field_t*.tsv"))[-1]))
    assert np.abs(finals[0] - finals[1]).max() < 1e-3


BELLMAN_HAMILTONIAN = """[hamiltonian]
family = bellman
controls = 1
lam_1 = 1
b_1 = -x
f_1 = 0
"""


@pytest.mark.parametrize("section, key, value", [
    ("domain", "dimension", "1.5"),
    ("domain", "dimension", "0"),
    ("hamiltonian", "controls", "0"),
    ("hamiltonian", "controls", "1.5"),
    ("scheme", "max_steps", "0"),
    ("scheme", "max_steps", "-3"),
    ("scheme", "max_steps", "2.5"),
    ("experiment", "seeds", "0"),
    ("experiment", "seeds", "2.5"),
])
def test_counts_must_be_whole_numbers_of_at_least_one(tmp_path, capsys,
                                                      section, key, value):
    # before, dimension = 1.5 ran in 1-D and max_steps = 0 became 2,000,000
    out = tmp_path / "out"
    text = MINIMAL.format(out=out)
    if key == "controls":
        start = text.index("[hamiltonian]")
        text = (text[:start] + BELLMAN_HAMILTONIAN
                + text[text.index("[data]"):])
    text = re.sub(rf"(?m)^{key} = .*\n", "", text)
    text = text.replace(f"[{section}]", f"[{section}]\n{key} = {value}", 1)
    p = write(tmp_path, text, "count.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    assert any(m.startswith(f"[{section}] {key}: not a whole number")
               for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not out.exists()


def test_counts_read_as_integers(tmp_path):
    text = MINIMAL.format(out=tmp_path / "out").replace(
        "theta = 0.9", "theta = 0.9\nmax_steps = 1e3")
    cfg = parse_config(write(tmp_path, text))
    assert cfg.scheme.max_steps == 1000 and isinstance(cfg.scheme.max_steps,
                                                       int)


def _keys(text):
    """(line index, section, key) of every key the template sets."""
    section = None
    for i, line in enumerate(text.splitlines()):
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line:
            yield i, section, line.split(" = ")[0]


TEMPLATES = {
    "minimal": MINIMAL,
    "bellman": (MINIMAL[:MINIMAL.index("[hamiltonian]")] + BELLMAN_HAMILTONIAN
                + MINIMAL[MINIMAL.index("\n[data]"):]),
    "bellman_2d": BELLMAN_2D,
}


@pytest.mark.parametrize("template, line, section, key", [
    pytest.param(name, *k, id=f"{name}-{k[2]}")
    for name, text in TEMPLATES.items() for k in _keys(text)])
def test_misspelled_key_is_refused(tmp_path, capsys, template, line, section,
                                   key):
    # every key the schema accepts, with one character appended
    lines = TEMPLATES[template].format(out=tmp_path / "out").splitlines()
    assert lines[line].startswith(f"{key} = ")
    lines[line] = lines[line].replace(key, key + "x", 1)
    p = write(tmp_path, "\n".join(lines), "typo.cfg")
    with pytest.raises(ValidationError) as ei:
        parse_config(p)
    refusal = f"[{section}] unknown key '{key}x'"
    assert any(m.startswith(refusal) for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert refusal in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [p]


# comparison.cfg from its Hamiltonian's m to its experiment
COMPARISON_TAIL = """m = 1.0
a1 = 1
lam = 0.5
f = 0.2*cos(3*x)

[data]
u0 = 1 - x^2
phi = 0

[scheme]
h = 0.0078125
theta = 0.9
T = 1.0

[experiment]
name = comparison
seeds = 20"""


@pytest.mark.parametrize("name, old, new, refusal", [
    ("boundary_loss", "snapshot_dt", "snapshot_dtt",
     "[scheme] unknown key 'snapshot_dtt'"),
    ("boundary_loss", "[output]", "[bogus]\nsnapshot_dt = 1\n\n[output]",
     "[bogus] is not a section"),
    # configparser would copy the keys of [DEFAULT] into every section
    ("comparison", "[domain]", "[DEFAULT]\nh = 0.5\n\n[domain]",
     "[DEFAULT] is not a section"),
    ("comparison", "alpha = 0.5", "alpha = 0.5\nrho = 1",
     "[kernel] rho is not a key of type = fractional_laplacian"),
    ("boundary_loss", "lipschitz = 1.0", "lipschitz = 1.0\nlam_3 = 1",
     "[hamiltonian] lam_3 is not a key of controls = 1"),
    ("boundary_loss", "controls = 1", "controls = 1\nm = 2",
     "[hamiltonian] m is not a key of family = bellman"),
    ("rate_nonlocal", "name = rate", "name = rate\nseeds = 3",
     "[experiment] seeds is not a key of name = rate"),
    ("rate_nonlocal", "name = rate", "name = rate\nh_list = 0.1",
     "[experiment] h_list is not a key of name = rate"),
    # lists that could only crash the run or fail its verdict
    ("rate_nonlocal", "name = rate",
     "name = large_time\nt_ladder = 2",
     "[experiment] t_ladder: needs at least 2 numbers"),
    ("boundary_loss", "h_list = 0.015625", "h_list = 0.3",
     "[experiment] h_list: domain side 2.0 is not a multiple of h = 0.3"),
    ("boundary_loss", "h_list = 0.015625", "h_list = 1",
     "[experiment] h_list: r_max = 8.0 must be at least 10*h = 10.0"),
    ("boundary_loss", "h_list = 0.015625", "h_list = 0",
     "[experiment] h_list: spacing h = 0.0 must be positive"),
    # ratios of spacings that are not refinements
    ("boundary_loss", "h_list = 0.015625 0.0078125",
     "h_list = 0.0078125 0.015625 0.015625",
     "[experiment] h_list: spacings must decrease strictly"),
    ("boundary_loss", "h_list = 0.015625 0.0078125",
     "h_list = 0.015625 0.015625",
     "[experiment] h_list: spacings must decrease strictly"),
    ("comparison", "name = comparison\nseeds = 20",
     "name = coercive_loss\nphi_scales = 1",
     "[experiment] phi_scales: needs at least 2 numbers"),
    # only run reads steady: the experiments below would run to T = None
    ("comparison", "T = 1.0", "steady = true",
     "[scheme] name = comparison needs a final time T"),
    ("boundary_loss", "T = 3.0", "steady = true",
     "[scheme] name = boundary_behavior needs a final time T"),
    # [scheme] keys the experiment never reads
    ("comparison", "T = 1.0", "T = 1.0\nsteady = false",
     "[scheme] steady is not a key of name = comparison"),
    ("boundary_loss", "T = 3.0", "T = 3.0\nsteady = true",
     "[scheme] steady is not a key of name = boundary_behavior"),
    ("rate_nonlocal", "T = 5.0", "T = 5.0\nsteady = true",
     "[scheme] steady is not a key of name = rate"),
    ("rate_nonlocal", "0.1\n\n[experiment]\nname = rate",
     "0.1\nsteady = true\n\n[experiment]\nname = large_time",
     "[scheme] steady is not a key of name = large_time"),
    ("comparison", "T = 1.0\n\n[experiment]\nname = comparison\nseeds = 20",
     "T = 1.0\nsteady = true\n\n[experiment]\nname = coercive_loss",
     "[scheme] steady is not a key of name = coercive_loss"),
    ("comparison", "T = 1.0", "T = 1.0\nsteady_tol = 1e-3",
     "[scheme] steady_tol is not a key of name = comparison"),
    ("comparison", "T = 1.0", "T = 1.0\nsnapshot_dt = 0.1",
     "[scheme] snapshot_dt is not a key of name = comparison"),
    ("boundary_loss", "T = 3.0", "T = 3.0\nsteady_tol = 1e-3",
     "[scheme] steady_tol is not a key of name = boundary_behavior"),
    ("rate_nonlocal", "T = 5.0", "T = 5.0\nsteady_tol = 1e-3",
     "[scheme] steady_tol is not a key of name = rate"),
    ("comparison", "T = 1.0\n\n[experiment]\nname = comparison\nseeds = 20",
     "T = 1.0\nsteady_tol = 1e-3\n\n[experiment]\nname = run",
     "[scheme] steady_tol is not a key of name = run without steady = true"),
    ("comparison", "T = 1.0\n\n[experiment]\nname = comparison\nseeds = 20",
     "T = 1.0\nsnapshot_dt = 0.1\n\n[experiment]\nname = coercive_loss",
     "[scheme] snapshot_dt is not a key of name = coercive_loss"),
    ("comparison", "T = 1.0\n\n[experiment]\nname = comparison\nseeds = 20",
     "steady = true\nsnapshot_dt = 0.1\n\n[experiment]\nname = run",
     "[scheme] snapshot_dt is not a key of name = run with steady = true"),
    # times and bounds that are not positive: a run backward in time, one
    # that cannot converge, a blow-up on the first step, or T = 0 read as
    # rate's default
    ("rate_nonlocal", "T = 5.0", "T = -1",
     "[scheme] T = -1.0 must be positive"),
    ("rate_nonlocal", "T = 5.0", "T = 0",
     "[scheme] T = 0.0 must be positive"),
    ("rate_nonlocal", "snapshot_dt = 0.1", "snapshot_dt = -0.1",
     "[scheme] snapshot_dt = -0.1 must be positive"),
    ("comparison",
     "theta = 0.9\nT = 1.0\n\n[experiment]\nname = comparison\nseeds = 20",
     "theta = 0.9\nT = 1.0\nsteady_tol = -1\n\n[experiment]\n"
     "name = coercive_loss", "[scheme] steady_tol = -1.0 must be positive"),
    ("rate_nonlocal", "name = rate",
     "name = large_time\nt_ladder = -1 2",
     "[experiment] t_ladder: horizons must be positive"),
    # a ladder read in the order given: a repeated or earlier horizon would
    # certify convergence from fewer distinct horizons than it lists
    ("rate_nonlocal", "name = rate",
     "name = large_time\nt_ladder = 2 2",
     "[experiment] t_ladder: horizons must increase strictly"),
    ("rate_nonlocal", "name = rate",
     "name = large_time\nt_ladder = 4 2 1",
     "[experiment] t_ladder: horizons must increase strictly"),
    # the face's inward normal needs no corner radius
    ("comparison", "upper = 1\n", "upper = 1\ncorner_exclusion = 0.1\n",
     "[domain] unknown key 'corner_exclusion'"),
    ("comparison", "type = fractional_laplacian", "type = gaussian",
     "[kernel] unknown type 'gaussian'"),
    ("comparison", "name = comparison\nseeds = 20", "name = boundary_behavior",
     "[experiment] boundary_behavior requires the bellman family"),
    ("boundary_loss", "alpha = 0.5", "alpha = 1.5",
     "[experiment] boundary_behavior requires alpha < 1"),
    ("rate_nonlocal", "phi_limit = 0\n", "",
     "[data] phi_limit is required for name = rate"),
    # a steady solve freezes t: the Hamiltonian and the data it reads may
    # not read t
    ("comparison", COMPARISON_TAIL,
     COMPARISON_TAIL.replace("0.2*cos(3*x)", "exp(-t)")
     .replace("T = 1.0", "steady = true")
     .replace("name = comparison\nseeds = 20", "name = run"),
     "[hamiltonian] f depends on t, but name = run with steady = true "
     "solves for a steady state"),
    ("comparison", COMPARISON_TAIL,
     COMPARISON_TAIL.replace("m = 1.0", "m = 2")
     .replace("0.2*cos(3*x)", "exp(-t)")
     .replace("name = comparison\nseeds = 20", "name = coercive_loss"),
     "[hamiltonian] f depends on t, but name = coercive_loss solves for a "
     "steady state"),
    ("rate_nonlocal", "phi_limit = 0", "phi_limit = exp(-t)",
     "[data] phi_limit depends on t, but name = rate solves for a steady "
     "state"),
    ("rate_nonlocal", "phi_limit = 0\n\n[scheme]\nh = 0.015625\ntheta = 0.9\n"
     "T = 5.0\nsnapshot_dt = 0.1\n\n[experiment]\nname = rate",
     "phi_limit = exp(-t)\n\n[scheme]\nh = 0.015625\ntheta = 0.9\n"
     "snapshot_dt = 0.1\n\n[experiment]\nname = large_time",
     "[data] phi_limit depends on t, but name = large_time solves for a "
     "steady state"),
    # keys that each parse but that the Hamiltonian refuses together
    ("comparison", "m = 1.0", "m = 1.0\nb = x",
     "[hamiltonian] drift b requires superlinear coercivity m > 1"),
    ("comparison", "m = 1.0", "m = 1.0\nl = 2",
     "[hamiltonian] exponents must satisfy 0 <= l < m, m > 0"),
    # files that configparser cannot read: a parse error
    ("comparison", "a1 = 1", "a1 = 1\na1 = 2",
     "option 'a1' in section 'hamiltonian' already exists"),
    ("comparison", "lam = 0.5", "lam 0.5", "Source contains parsing errors"),
])
def test_refused_by_name_before_output(tmp_path, capsys, name, old, new,
                                       refusal):
    out = tmp_path / "out"
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert old in text
    text = re.sub(r"(?m)^directory = .*$", f"directory = {out}", text)
    p = write(tmp_path, text.replace(old, new, 1))
    with pytest.raises((ParseError, ValidationError)) as ei:
        parse_config(p)
    if isinstance(ei.value, ParseError):
        assert refusal in str(ei.value)
        refusal = f"parse error: {ei.value}"
    else:
        assert any(m.startswith(refusal) for m in ei.value.problems)
    assert main(["run", str(p)]) == 2
    assert refusal in capsys.readouterr().err
    assert not out.exists()


def test_readme_configuration_reference_matches_the_parser():
    # every key the tables accept is named in README's "Configuration
    # format" section, and its [domain] and [scheme] lines name only keys
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("## Configuration format")[1].split("\n## ")[0]
    keys = {name: set(table) for name, table in config.SECTIONS.items()}
    for name, (_, tables) in config.CHOICES.items():
        for table in tables.values():
            keys[name] |= set(table)
    named = set(re.findall(r"\w+", section))
    missing = sorted(k for table in keys.values() for k in table
                     if k not in named)
    assert not missing, f"keys missing from README: {missing}"
    block = section.split("```")[1]
    for name in ("domain", "scheme"):
        entry = re.search(rf"(?m)^\[{name}\](.*\n(?:[ \t]+\S.*\n)*)", block)
        words = set(re.findall(r"\w+", entry.group(1))) - {"true"}
        assert words <= keys[name], \
            f"[{name}] names what it does not accept: {words - keys[name]}"

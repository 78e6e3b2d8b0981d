import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gconn import actions, connections, curvature, frames, linalg, slices
from gconn.cli import (SCENARIOS, ScenarioConfig, check_closed_vs_fd, main,
                       run_scenario)
from gconn.groups import exp_so3
from gconn.report import VerificationReport


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "gconn.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_scenario_registry_names():
    assert sorted(SCENARIOS) == sorted([
        "so3-r3-basics", "so3-r3-docility", "hxh-su3-curvature",
        "s1s1-so3-slice", "us2-moving-frame", "s2-pmf-beta",
        "property-suite-all"])


def test_run_scenario_unknown_name():
    with pytest.raises(KeyError):
        run_scenario(ScenarioConfig(scenario="bogus"))


def test_unknown_scenario_exits_nonzero():
    r = run_cli(["--scenario", "bogus"])
    assert r.returncode == 2
    assert "invalid choice: 'bogus'" in r.stderr


def test_scenario_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1"])
    assert exc.value.code == 2
    assert ("the following arguments are required: --scenario"
            in capsys.readouterr().err)


def test_unknown_format_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "so3-r3-docility", "--format", "yaml"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --format: invalid choice: 'yaml'" in err


def test_key_error_inside_a_scenario_is_not_a_usage_error(monkeypatch):
    # only an unknown --scenario is a usage error; a KeyError that a
    # builder raises is no typed numerical error, so it propagates with its
    # traceback
    def check_lookup(rep, rng, samples):
        actions.get_action("no-such-action")

    monkeypatch.setitem(SCENARIOS, "so3-r3-docility", (check_lookup,))
    with pytest.raises(KeyError, match="no-such-action"):
        main(["--scenario", "so3-r3-docility"])


def test_a_typed_numerical_error_is_a_failing_record(monkeypatch, tmp_path):
    # past this rank cutoff the inertia of one closed-vs-fd draw has a
    # kernel larger than the isotropy: the report names the error, keeps
    # the records made before it, and the run exits 1
    monkeypatch.setattr(linalg, "TOL_RANK", 1e-4)
    out = tmp_path / "r.json"
    assert main(["--scenario", "hxh-su3-curvature", "--seed", "0",
                 "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    failing = [c for c in checks if not c["passed"]]
    assert sorted(c["check_id"] for c in failing) == ["closed-vs-fd"] + _TABLE
    detail, = [c["detail"] for c in failing if c["check_id"] == "closed-vs-fd"]
    assert detail.startswith("check_closed_vs_fd raised DegeneracyError: ")
    assert "cond 7.373e+03, gap 1.064e-01" in detail
    # the builder after it still runs
    assert checks[-1]["check_id"] == "d-exact-vs-fd"


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_a_consistency_failure_is_a_failing_record(monkeypatch, seed):
    # below roundoff every consistency test fails; tame's symmetry test and
    # the adapted form's iota test raise InconsistentSystemError, with the
    # cond and gap of the base form's chi, so every scenario gives a report
    monkeypatch.setattr(linalg, "TOL_CONSIST", 1e-20)
    details = {}
    for name in SCENARIOS:
        rep = run_scenario(ScenarioConfig(name, seed=seed))
        details.update({(name, c.check_id): c.detail
                        for c in rep.checks if not c.passed})
    for key, builder, message in [
            (("hxh-su3-curvature", "tamed-d-exact-vs-fd"),
             "check_tamed_d_exact_vs_fd",
             "tame: inertia factor is not symmetric here"),
            (("s1s1-so3-slice", "abel-involutivity"),
             "check_abel_involutivity",
             "iota is not a restricted pseudo-inverse here"),
            (("s1s1-so3-slice", "adapted-d-exact-vs-fd"),
             "check_adapted_d_exact_vs_fd",
             "iota is not a restricted pseudo-inverse here")]:
        assert details[key].startswith(
            f"{builder} raised InconsistentSystemError: {message} "
            f"(residual "), details[key]
        assert ", cond " in details[key] and ", gap " in details[key]


def test_an_adaptor_contract_failure_is_a_failing_record(monkeypatch):
    # an adaptor anchored at a regular point fails its contract at the
    # identity; AdaptorContractError is a DegeneracyError
    def check_bad_adaptor(rep, rng, samples):
        A = actions.get_action("s1s1-on-so3")
        bad = slices.trivial_adaptor(A, exp_so3(np.array([0.5, 0.2, -0.1])))
        slices.adapted_inertia(connections.simple_mechanical_mu(A), bad,
                               np.eye(3))

    monkeypatch.setitem(SCENARIOS, "so3-r3-docility", (check_bad_adaptor,))
    [c] = run_scenario(ScenarioConfig("so3-r3-docility")).checks
    assert (c.check_id, c.passed) == ("bad-adaptor", False)
    assert c.detail == ("check_bad_adaptor raised AdaptorContractError: ker "
                        "chi_phi escapes the reference isotropy algebra")


def test_a_point_outside_a_frame_domain_is_a_failing_record(monkeypatch):
    # the eastward field is undefined on its polar caps
    def check_pole(rep, rng, samples):
        frames.eastward_field(np.array([0.0, 0.0, 1.0]))

    monkeypatch.setitem(SCENARIOS, "so3-r3-docility", (check_pole,))
    [c] = run_scenario(ScenarioConfig("so3-r3-docility")).checks
    assert (c.check_id, c.passed) == ("pole", False)
    assert c.detail == ("check_pole raised DomainError: eastward_field: too "
                        "close to a pole")


def test_a_rotation_that_moves_its_point_onto_a_pole_is_redrawn(tmp_path):
    # at this seed a rotation of the slip-relative checks moved its point
    # into a polar cap, where the eastward field is undefined
    out = tmp_path / "r.json"
    assert main(["--scenario", "s2-pmf-beta", "--seed", "764",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"] == {
        "total": 103, "passed": 103, "failed": 0}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 11])
def test_each_form_evaluates_the_generators_once_per_point(
        generator_evaluations, seed):
    # each builder of so3-r3-basics draws its points from a generator of
    # its own, and the forms there evaluate each point through one point
    # evaluation; so3-r3-docility evaluates its two forms once each at the
    # origin
    for builder, points in zip(SCENARIOS["so3-r3-basics"], (40, 77, 0)):
        generator_evaluations.clear()
        builder(VerificationReport("alone"), np.random.default_rng(seed), 20)
        assert len(generator_evaluations) == points, builder.__name__
        assert set(generator_evaluations.values()) <= {1}, builder.__name__
    generator_evaluations.clear()
    run_scenario(ScenarioConfig("so3-r3-docility", seed=seed))
    assert generator_evaluations == {np.zeros(3).tobytes(): 2}


_SINGLE = sorted(set(SCENARIOS) - {"property-suite-all"})


@pytest.mark.parametrize("seed", [0, 1, 11])
@pytest.mark.parametrize("scenario", _SINGLE)
def test_every_builder_alone_gives_its_scenario_records(scenario, seed):
    # each builder draws from a generator of its own, so it replays alone,
    # and the criteria can call it with their own seed and count
    alone = []
    for builder in SCENARIOS[scenario]:
        rep = VerificationReport("alone")
        builder(rep, np.random.default_rng(seed), 20)
        assert rep.checks, builder.__name__
        alone += rep.checks
    rep = run_scenario(ScenarioConfig(scenario, seed=seed, samples=20))
    assert rep.checks == alone


def test_a_builder_added_to_a_row_moves_no_other_record(monkeypatch):
    def check_draws(rep, rng, samples):
        rep.add_worst("draws", "draws from its generator",
                      rng.random(samples), 1.0)

    def run(name):
        return run_scenario(ScenarioConfig(name, seed=1, samples=8)).checks

    before = {name: run(name) for name in _SINGLE + ["property-suite-all"]}
    for name in _SINGLE:
        monkeypatch.setitem(SCENARIOS, name, (check_draws,) + SCENARIOS[name])
        first, *rest = run(name)
        assert first.check_id == "draws"
        assert rest == before[name], name
    suite = [c for c in run("property-suite-all")
             if not c.check_id.endswith("/draws")]
    assert suite == before["property-suite-all"]


def test_out_dash_writes_the_report_to_stdout(capsys):
    assert main(["--scenario", "so3-r3-docility", "--out", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scenario"] == "so3-r3-docility"
    assert data["summary"]["failed"] == 0


def test_docility_scenario_passes(tmp_path):
    out = tmp_path / "r.json"
    r = run_cli(["--scenario", "so3-r3-docility", "--out", str(out)])
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert data["scenario"] == "so3-r3-docility"
    assert data["summary"]["failed"] == 0
    ids = [c["check_id"] for c in data["checks"]]
    assert "non-docile" in ids and "docile" in ids


def test_exit_status_reflects_failures():
    # the curvature table scenario holds three tabulated entries that the
    # closed form reproduces only at theta = pi/4, so the run must fail
    r = run_cli(["--scenario", "hxh-su3-curvature", "--samples", "3"])
    assert r.returncode == 1
    data = json.loads(r.stdout)
    failing = {c["check_id"] for c in data["checks"] if not c["passed"]}
    assert failing == {"table-25", "table-35", "table-36"}
    assert any(c["check_id"] == "closed-vs-fd" and c["passed"]
               for c in data["checks"])


def test_reports_are_byte_deterministic():
    a = run_cli(["--scenario", "s2-pmf-beta", "--seed", "7",
                 "--samples", "6"])
    b = run_cli(["--scenario", "s2-pmf-beta", "--seed", "7",
                 "--samples", "6"])
    assert a.stdout == b.stdout
    c = run_cli(["--scenario", "s2-pmf-beta", "--seed", "8",
                 "--samples", "6"])
    assert c.stdout != a.stdout  # seed is recorded in the config echo


def test_json_round_trip():
    cfg = ScenarioConfig(scenario="us2-moving-frame", samples=5)
    rep = run_scenario(cfg)
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert back.summary == rep.summary


def test_empty_report_serializes():
    rep = VerificationReport(scenario="empty")
    data = json.loads(rep.to_json())
    assert data["summary"] == {"total": 0, "passed": 0, "failed": 0}


def test_text_format():
    r = run_cli(["--scenario", "so3-r3-docility", "--format", "text"])
    assert r.returncode == 0
    assert "[pass]" in r.stdout
    assert "checks passed" in r.stdout


def test_main_returns_exit_code(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--scenario", "so3-r3-docility", "--out", str(out)]) == 0
    assert out.exists()


def test_text_format_writes_to_the_out_file(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["--scenario", "so3-r3-docility", "--format", "text",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == run_scenario(
        ScenarioConfig("so3-r3-docility", fmt="text")).to_text()


def test_flags_are_recorded():
    # so3-r3-docility applies the seed: it draws the curvature's directions
    r = run_cli(["--scenario", "so3-r3-docility", "--seed", "3"])
    data = json.loads(r.stdout)
    assert data["config"]["seed"] == 3


@pytest.mark.parametrize("samples", [1, 7])
def test_docility_draws_one_curvature_per_sample(monkeypatch, tmp_path,
                                                 samples):
    # so3-r3-docility reads --samples: zero-curvature is the worst of that
    # many curvature evaluations at the origin (passed as a point
    # evaluation)
    points = []
    original = curvature.curvature

    def spied(mu, m, u, v):
        points.append(np.array(getattr(m, "m", m), dtype=float))
        return original(mu, m, u, v)

    monkeypatch.setattr(curvature, "curvature", spied)
    out = tmp_path / "report.json"
    assert main(["--scenario", "so3-r3-docility", "--samples", str(samples),
                 "--out", str(out)]) == 0
    assert len(points) == samples
    assert not any(p.any() for p in points)


def test_config_echoes_the_flags_and_nothing_else():
    assert list(ScenarioConfig("so3-r3-docility").echo()) == [
        "scenario", "seed", "samples", "fmt"]


@pytest.mark.parametrize("flag", ["--tol-eq", "--tol-struct", "--tol-rank",
                                  "--fd-step"])
def test_record_thresholds_are_not_flags(capsys, flag):
    # each record's threshold is fixed at the record, and the rank cutoff
    # and the difference step are constants of gconn.linalg
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "s1s1-so3-slice", flag, "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_property_suite_prefixes_check_ids():
    cfg = ScenarioConfig(scenario="property-suite-all", samples=8)
    rep = run_scenario(cfg)
    prefixes = {c.check_id.split("/")[0] for c in rep.checks}
    assert prefixes == set(SCENARIOS) - {"property-suite-all"}


def test_omitted_flags_echo_the_config_defaults(tmp_path):
    for scenario in ("so3-r3-docility", "us2-moving-frame"):
        out = tmp_path / f"{scenario}.json"
        main(["--scenario", scenario, "--out", str(out)])
        echo = json.loads(out.read_text())["config"]
        assert echo == ScenarioConfig(scenario=scenario).echo()


def test_property_suite_is_its_scenarios_at_a_quarter_of_the_samples():
    suite = run_scenario(ScenarioConfig("property-suite-all", seed=3,
                                        samples=8))
    for name in sorted(set(SCENARIOS) - {"property-suite-all"}):
        alone = run_scenario(ScenarioConfig(name, seed=3,
                                            samples=max(4, 8 // 4)))
        prefix = f"{name}/"
        inner = [replace(c, check_id=c.check_id[len(prefix):])
                 for c in suite.checks if c.check_id.startswith(prefix)]
        assert inner == alone.checks, name


def test_differences_read_the_step_when_called(monkeypatch, tmp_path):
    # every difference probes +-linalg.FD_STEP and +-2 FD_STEP, with the
    # step read at the time of the call
    steps = []
    original = linalg.curve_derivative

    def spied_difference(f):
        def probed(t):
            steps.append(abs(t))
            return f(t)

        return original(probed)

    monkeypatch.setattr(linalg, "FD_STEP", 2e-5)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "gconn"
                and getattr(module, "curve_derivative", None) is original):
            monkeypatch.setattr(module, "curve_derivative", spied_difference)
    for scenario in sorted(SCENARIOS):
        main(["--scenario", scenario, "--seed", "1", "--samples", "2",
              "--out", str(tmp_path / "r.json")])
    assert steps and set(steps) == {2e-5, 4e-5}


def test_differences_come_only_from_the_oracles(monkeypatch, tmp_path):
    # every central difference of every scenario is taken by an oracle
    # (an fd_oracle form's dmatrix, the frame oracles' _trivialized_fd) or
    # for a factor without a closed form: mu_q's q' and the adapted form's
    # iota
    callers = set()
    original = linalg.curve_derivative

    def spied(f):
        code = sys._getframe(1).f_code
        callers.add(getattr(code, "co_qualname", code.co_name))
        return original(f)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "gconn"
                and getattr(module, "curve_derivative", None) is original):
            monkeypatch.setattr(module, "curve_derivative", spied)
    for scenario in sorted(SCENARIOS):
        main(["--scenario", scenario, "--seed", "1", "--samples", "2",
              "--out", str(tmp_path / "r.json")])
    assert callers == {"fd_oracle.<locals>.dmatrix", "_trivialized_fd",
                       "adapted_dual_form.<locals>.dmatrix",
                       "mu_q.<locals>.dmatrix"}


@pytest.mark.parametrize("flag, value", [
    ("--samples", "0"), ("--samples", "-5"), ("--samples", "2.5"),
    ("--samples", "nan"), ("--seed", "-1"), ("--seed", "1.5"),
])
def test_bad_numeric_flags_are_rejected(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "s1s1-so3-slice", f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and repr(value) in err


# The failing check ids of every scenario at the default flags and seeds
# 0-5 and 11, one per failing record: the table records fail at each of
# their three angles (ROADMAP item 2), and no run raises.
_TABLE = ["table-25"] * 3 + ["table-35"] * 3 + ["table-36"] * 3
_FAILING = {
    "hxh-su3-curvature": _TABLE,
    "property-suite-all": [f"hxh-su3-curvature/{c}" for c in _TABLE],
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_pass_fail_inventory(scenario):
    for seed in (0, 1, 2, 3, 4, 5, 11):
        rep = run_scenario(ScenarioConfig(scenario, seed=seed))
        failing = sorted(c.check_id for c in rep.checks if not c.passed)
        assert failing == _FAILING.get(scenario, []), f"seed {seed}"


def _nan_of(fn):
    """``fn`` with every entry of its result replaced by NaN."""
    def nan(*args, **kwargs):
        return np.full(np.shape(fn(*args, **kwargs)), np.nan)
    return nan


def _closed_vs_fd():
    rep = VerificationReport("closed-vs-fd")
    check_closed_vs_fd(rep, np.random.default_rng(1), 4)
    return rep


@pytest.mark.parametrize("owner, name, run, check_ids", [
    (curvature, "curvature_leftright_closed",
     lambda: run_scenario(ScenarioConfig("s1s1-so3-slice", seed=1)),
     ["flat"]),
    (curvature, "curvature_leftright_closed", _closed_vs_fd,
     ["closed-vs-fd"]),
    (frames, "dnat_rho",
     lambda: run_scenario(ScenarioConfig("us2-moving-frame", seed=1)),
     ["dnat-closed-form"]),
    (frames.PartialMovingFrame, "dnat_phi",
     lambda: run_scenario(ScenarioConfig("s2-pmf-beta", seed=1)),
     ["latitude-curvature", "frame-d-exact-vs-fd"]),
], ids=["flat", "closed-vs-fd", "dnat-closed-form", "dnat-phi"])
def test_nan_sample_fails_its_worst_of_record(monkeypatch, owner, name, run,
                                              check_ids):
    # max(0.0, nan) is 0.0, so a running max would pass these records
    monkeypatch.setattr(owner, name, _nan_of(getattr(owner, name)))
    rep = run()
    records = {c.check_id: c for c in rep.checks}
    for check_id in check_ids:
        assert np.isnan(records[check_id].residual), check_id
        assert not records[check_id].passed, check_id
    # the report stays strict JSON, and reads back to the same report
    text = rep.to_json()
    json.loads(text, parse_constant=_reject_constant)
    back = VerificationReport.from_json(text)
    assert back.to_json() == text
    assert all(c.passed == (c.residual <= c.tolerance) for c in back.checks)
    assert np.isnan([c.residual for c in back.checks
                     if c.check_id in check_ids]).all()


def test_scenarios_reach_lapack_only_through_gconn_linalg(monkeypatch):
    # the registry and the factors its algebras take once are built first:
    # only they keep np.linalg
    for name in actions.action_names():
        alg = actions.get_action(name).manifold_alg
        if alg is not None:
            alg.gram_factor
    calls = Counter()

    def spy(key, f):
        def counted(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return counted

    for fn in ("svd", "inv", "solve", "eigh"):
        monkeypatch.setattr(np.linalg, fn,
                            spy("np.linalg." + fn, getattr(np.linalg, fn)))
    for fn in ("svd", "solve", "eigh"):
        monkeypatch.setattr(linalg, fn, spy(fn, getattr(linalg, fn)))
    for scenario in sorted(SCENARIOS):
        run_scenario(ScenarioConfig(scenario, seed=0))
    # no np.linalg call, and every entry of gconn.linalg reached
    assert sorted(calls) == ["eigh", "solve", "svd"]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_non_finite_residuals_are_strict_json_strings():
    rep = VerificationReport("non-finite")
    for r in (np.nan, np.inf, -np.inf, 0.5):
        rep.add("c", "a record", r, 1.0)
    data = json.loads(rep.to_json(), parse_constant=_reject_constant)
    assert [c["residual"] for c in data["checks"]] == [
        "NaN", "Infinity", "-Infinity", 0.5]
    back = VerificationReport.from_json(rep.to_json())
    assert [c.residual for c in back.checks][1:] == [np.inf, -np.inf, 0.5]
    assert [c.passed for c in back.checks] == [False, False, True, True]

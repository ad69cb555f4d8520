"""Config-driven orchestration: builders, exit codes, report determinism,
bundled configs, and figure data."""

import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import srmarket
from srmarket import cli
from srmarket.cli import (
    ConfigError,
    build_belief,
    build_rule,
    build_search,
    bundled_config_names,
    config_hash,
    load_config,
    main,
    run_check,
    run_extract,
    run_figure,
    run_session,
)
from srmarket.contracts import OutcomeSpace
from srmarket.engine import MarketSession
from srmarket.scoring import ExpectationRule, ModeRule, QuantileRule

# a two-security LMSR over three outcomes, k = n - 1, the paper's canonical
# cost-function market
LMSR3 = os.path.join(os.path.dirname(__file__), "data", "lmsr3.json")


class TestBuilders:
    def test_rule_families(self):
        assert isinstance(build_rule({"family": "mode", "outcomes": [1, 2]}),
                          ModeRule)
        assert isinstance(build_rule(
            {"family": "quantile", "alpha": 0.4, "transform": "sigmoid"}),
            QuantileRule)
        rule = build_rule({"family": "expectation",
                           "potential": {"name": "quadratic"}})
        assert isinstance(rule, ExpectationRule)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            build_rule({"family": "nope"})

    def test_belief_variants(self):
        space = OutcomeSpace.finite((1, 2))
        assert build_belief({"pmf": [0.4, 0.6]}, space).pmf is not None
        b = build_belief({"uniform": [0.0, 2.0]}, OutcomeSpace.real_line())
        assert b.support() == (0.0, 2.0)
        c = build_belief({"cdf": {"x": [0, 1], "F": [0, 1]}},
                         OutcomeSpace.real_line())
        assert c.quantile(0.5) == pytest.approx(0.5)

    def test_search_overrides(self):
        cfg = build_search({"report_points": 11, "report_window": [-1, 1]},
                           seed=9)
        assert cfg.report_points == 11
        assert cfg.seed == 9

    def test_config_hash_stable(self):
        c = {"a": 1, "b": [1, 2]}
        assert config_hash(c) == config_hash(json.loads(json.dumps(c)))


class TestLoadConfig:
    def test_bundled_names_resolve(self):
        names = bundled_config_names()
        assert "mode_market" in names and "lmsr_open" in names
        cfg = load_config("mode_market")
        assert cfg["market"]["family"] == "mode"

    def test_missing_config(self):
        with pytest.raises(ConfigError):
            load_config("definitely_not_a_config")


class TestRunCheck:
    def test_mode_market_expected_verdicts(self, tmp_path):
        cfg = load_config("mode_market")
        assert run_check(cfg, str(tmp_path)) == 0
        summary = json.loads(
            (tmp_path / "mode_market__summary.json").read_text())
        assert summary["verdicts"]["WN"] == "fails"
        assert summary["verdicts"]["WCL"] == "holds"

    def test_mismatch_exit_code(self, tmp_path):
        cfg = load_config("mode_market")
        cfg["expected"]["WN"] = "holds"
        assert run_check(cfg, str(tmp_path)) == 1

    @pytest.mark.parametrize("axioms", [None, []])
    def test_no_axioms_is_config_error(self, tmp_path, axioms):
        cfg = load_config("mode_market")
        del cfg["expected"]
        if axioms is None:
            del cfg["axioms"]
        else:
            cfg["axioms"] = axioms
        with pytest.raises(ConfigError, match="axioms"):
            run_check(cfg, str(tmp_path))
        assert not os.listdir(tmp_path)

    def test_expected_axiom_not_run_is_config_error(self, tmp_path):
        cfg = load_config("mode_market")
        cfg["axioms"] = ["WCL"]
        cfg["expected"] = {"WCL": "holds", "WN": "holds"}
        with pytest.raises(ConfigError, match="WN"):
            run_check(cfg, str(tmp_path))
        assert not os.listdir(tmp_path)

    def test_two_security_lmsr_verdicts(self, tmp_path):
        # its report grid spans the search window on both axes of R^2;
        # WCL holds at the closed-form bound log 3 from r0 = [0, 0]
        assert main(["check", "--config", LMSR3, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "lmsr3__summary.json").read_text())
        assert summary["verdicts"] == {
            "OPEN": "holds-at-budget", "QUASI-OPEN": "holds-at-budget",
            "ARB": "holds-at-budget", "WN": "holds-at-budget",
            "TN": "holds-at-budget", "PN": "holds-at-budget", "WCL": "holds",
            "PRICE-BOUND": "holds-at-budget"}
        wcl = (tmp_path / "lmsr3__WCL.report.txt").read_text()
        assert f"margin: {math.log(3.0)!r}\n" in wcl

    def test_byte_identical_reports(self, tmp_path):
        cfg = load_config("ratio_market")
        run_check(cfg, str(tmp_path / "x"))
        run_check(cfg, str(tmp_path / "y"))
        for name in os.listdir(tmp_path / "x"):
            assert (tmp_path / "x" / name).read_bytes() == \
                (tmp_path / "y" / name).read_bytes()


class TestSessionCommand:
    def test_mean_session_states_and_loss(self, tmp_path):
        cfg = load_config("session_mean")
        assert run_session(cfg, str(tmp_path)) == 0
        text = (tmp_path / "session_mean__session.txt").read_text()
        lines = [json.loads(l) for l in text.splitlines()
                 if l.startswith("{") and "r_new" in l]
        # traders with means 0.3, 0.6, 0.5 move the state accordingly
        assert [round(l["r_new"], 6) for l in lines] == [0.3, 0.6, 0.5]
        settle = json.loads([l for l in text.splitlines()
                             if l.startswith("{") and "maker_loss" in l][0])
        # maker loss telescopes to S(0.5, 0.4) - S(0.2, 0.4)
        expect = (2 * 0.5 * 0.4 - 0.25) - (2 * 0.2 * 0.4 - 0.04)
        assert settle["maker_loss"] == pytest.approx(expect, abs=1e-6)
        assert "path_independence: holds" in text

    def test_single_trader_at_r0_changes_nothing(self, tmp_path):
        cfg = {
            "name": "still",
            "market": {"family": "expectation",
                       "potential": {"name": "quadratic"}},
            "r0": 0.5,
            "traders": [{"id": "t", "belief": {"uniform": [0.0, 1.0]}}],
            "outcome": 0.3,
        }
        run_session(cfg, str(tmp_path))
        text = (tmp_path / "still__session.txt").read_text()
        settle = json.loads([l for l in text.splitlines()
                             if l.startswith("{") and "maker_loss" in l][0])
        assert settle["maker_loss"] == pytest.approx(0.0, abs=1e-7)

    def test_quantile_session_final_state(self, tmp_path):
        cfg = {
            "name": "qsession",
            "market": {"family": "quantile", "alpha": 0.5},
            "r0": 0.0,
            "traders": [
                {"id": "a", "belief": {"uniform": [0.0, 1.0]}},
                {"id": "b", "belief": {"uniform": [0.4, 1.2]}},
                {"id": "c", "belief": {"uniform": [-1.0, 0.2]}},
            ],
            "outcome": 0.1,
        }
        run_session(cfg, str(tmp_path))
        text = (tmp_path / "qsession__session.txt").read_text()
        lines = [json.loads(l) for l in text.splitlines()
                 if l.startswith("{") and "r_new" in l]
        assert lines[-1]["r_new"] == pytest.approx(-0.4, abs=1e-6)


    def test_ratio_session_bytes(self, tmp_path):
        # a finite-market session: three pmf traders on the ratio market;
        # the report's bytes are pinned, and its ledger lines replay
        assert run_session(RATIO_SESSION_CONFIG, str(tmp_path)) == 0
        text = (tmp_path / "ratio_session__session.txt").read_text()
        assert text == RATIO_SESSION
        lines = text.split("\nledger:\n")[1].split("\nsettlement:\n")[0].splitlines()
        replayed = MarketSession.replay(
            build_rule(RATIO_SESSION_CONFIG["market"]), 1.0, lines)
        assert replayed.ledger_lines() == lines


RATIO_SESSION_CONFIG = {
    "name": "ratio_session",
    "market": {"family": "ratio",
               "potential": {"name": "interval_negentropy", "lo": 0.0, "hi": 3.0},
               "phi": [0.0, 1.0, 3.0], "b": [2.0, 1.0, 1.0],
               "outcomes": [1, 2, 3]},
    "r0": 1.0,
    "traders": [
        {"id": "t1", "belief": {"pmf": [0.2, 0.5, 0.3]}},
        {"id": "t2", "belief": {"pmf": [0.6, 0.1, 0.3]}},
        {"id": "t1", "belief": {"pmf": [0.3, 0.3, 0.4]}},
    ],
    "outcome": 3,
}

RATIO_SESSION = """\
# tool: srmarket 0.1.0
# config: ratio_session
# config_sha256: d25af9b771b46e05

ledger:
{"index": 0, "r_new": 1.1666666755332822, "r_old": 1.0, "trader": "t1"}
{"index": 1, "r_new": 0.6250000024675644, "r_old": 1.1666666755332822, "trader": "t2"}
{"index": 2, "r_new": 1.1538461589634819, "r_old": 0.6250000024675644, "trader": "t1"}
settlement:
{"maker_loss": 0.1431008480756909, "outcome": 3, "payoffs": [["t1", 0.767255160800538], \
["t2", -0.6241543127248471]], "telescoped_loss": 0.1431008480756909}
worst_case_loss: 0.1431008480756909
path_independence: holds (margin 0.0)
"""


class TestExtractCommand:
    def test_entropy_extract_ok(self, tmp_path):
        assert run_extract(load_config("extract_entropy"), str(tmp_path)) == 0
        text = (tmp_path / "extract_entropy__extract.txt").read_text()
        assert "ok: True" in text

    def test_planar_hulls_leave_scipy_spatial_unloaded(self, tmp_path):
        # in a fresh interpreter, a one-security extraction, OPEN on a two-
        # security cost market and a 2-D hull report space take the planar
        # hull; a two-security extraction lifts its shares to 3-D, Qhull's
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from srmarket.cli import main
            from srmarket.convex import log_partition, simplex_negentropy
            from srmarket.costmarket import CostRule, check_open, extract_cost_market
            from srmarket.reports import HOLDS_AT_BUDGET
            from srmarket.scoring import ExpectationRule
            assert main(["extract", "--config", "extract_entropy",
                         "--out", sys.argv[1]]) == 0
            phi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
            report = check_open(CostRule(log_partition(phi), phi))
            assert report.verdict == HOLDS_AT_BUDGET
            rule = ExpectationRule(simplex_negentropy(2), phi=phi)
            assert rule.report_space._facets is not None
            assert "scipy.spatial" not in sys.modules
            ext = extract_cost_market(rule, [np.array([a, b]) for a in (0.2, 0.4)
                                             for b in (0.15, 0.3)])
            assert ext.ok and ext.k == 2
            assert "scipy.spatial" in sys.modules
        """)
        src = os.path.dirname(os.path.dirname(srmarket.__file__))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_vector_reports_read_back(self, tmp_path):
        # each report of the two-security LMSR's grid is written as the list
        # of its floats, not numpy's rounded repr
        market = load_config(LMSR3)["market"]
        path = tmp_path / "lmsr3_extract.json"
        path.write_text(json.dumps({"name": "lmsr3", "market": market}))
        assert main(["extract", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "lmsr3__extract.txt").read_text()
        assert "ok: True" in text and "array(" not in text
        rows = text.split("report, v, cost):\n")[1].split("\nsolve_residual")[0]
        written = [json.loads(row[:row.index("]") + 1])
                   for row in rows.splitlines()]
        assert written == [r.tolist() for r in build_rule(market).report_grid()]

    def test_mode_extract_expected_failure(self, tmp_path):
        assert run_extract(load_config("extract_mode"), str(tmp_path)) == 0
        text = (tmp_path / "extract_mode__extract.txt").read_text()
        assert "failure_step: subgroup" in text

    def test_ratio_extract_expected_failure(self, tmp_path):
        assert run_extract(load_config("extract_ratio"), str(tmp_path)) == 0

    def test_report_prints_floats_not_numpy_reprs(self, tmp_path):
        # a quadratic potential leaves a rounding-sized convexity gap; each
        # residual line is a float's repr, readable by float()
        cfg = {"name": "quad_extract",
               "market": {"family": "expectation",
                          "potential": {"name": "quadratic", "lo": [-2.0],
                                        "hi": [3.0]},
                          "phi": [0.0, 1.0, 2.5], "outcomes": [1, 2, 3]},
               "grid": {"lo": 0.1, "hi": 2.3, "num": 13}}
        path = tmp_path / "quad_extract.json"
        path.write_text(json.dumps(cfg))
        assert main(["extract", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "quad_extract__extract.txt").read_text()
        assert "ok: True" in text and "np." not in text
        for key in ("solve_residual", "roundtrip_residual", "convexity_gap"):
            line = next(l for l in text.splitlines() if l.startswith(key + ":"))
            assert 0.0 <= float(line.split(": ")[1]) < 1e-8

    @pytest.mark.parametrize("grid,reason", [
        ({"lo": 0.1, "hi": 2.3, "num": 1}, "'num'"),
        ([1.0, 1.0], "two distinct reports, not 1")])
    def test_one_report_grid_exit_two(self, tmp_path, capsys, grid, reason):
        # such a grid read as "all contracts are cash" and exited 1
        cfg = {"name": "quad_extract",
               "market": {"family": "expectation",
                          "potential": {"name": "quadratic", "lo": [-2.0],
                                        "hi": [3.0]},
                          "phi": [0.0, 1.0, 2.5], "outcomes": [1, 2, 3]},
               "grid": grid}
        path = tmp_path / "quad_extract.json"
        path.write_text(json.dumps(cfg))
        assert main(["extract", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert reason in err
        assert not (tmp_path / "out").exists()


class TestFigureCommand:
    def test_mode_figure_values(self, tmp_path):
        assert run_figure(load_config("fig_mode_position"), str(tmp_path)) == 0
        rows = _read_dat(tmp_path / "fig_mode_position.dat")
        # columns: y, S(1,y), S(3,y), F(2,y|1)
        assert rows[0] == [1.0, 1.0, 0.0, -1.0]
        assert rows[1] == [2.0, 0.0, 0.0, 1.0]
        assert rows[2] == [3.0, 0.0, 1.0, 0.0]

    def test_mean_figure_matches_closed_form(self, tmp_path):
        run_figure(load_config("fig_mean_position"), str(tmp_path))
        for row in _read_dat(tmp_path / "fig_mean_position.dat"):
            y = row[0]
            assert row[1] == pytest.approx((-1) ** 2 - 1 + 2 * y * 2,
                                           abs=1e-12)
            assert row[4] == pytest.approx(row[1] + (1 - 1 + 2 * y * (-2)),
                                           abs=1e-12)

    def test_discretized_figure(self, tmp_path):
        run_figure(load_config("fig_discretized_lmsr"), str(tmp_path))
        rows = _read_dat(tmp_path / "fig_discretized_lmsr.dat")
        for q, c, price in rows:
            assert c == pytest.approx(math.log(1 + math.exp(q)), abs=1e-12)
            assert price == pytest.approx(1 / (1 + math.exp(-q)), abs=1e-12)


class TestMain:
    def test_check_exit_zero(self, tmp_path):
        assert main(["check", "--config", "mode_market",
                     "--out", str(tmp_path)]) == 0

    def test_bad_config_exit_two(self, tmp_path, capsys):
        assert main(["check", "--config", "missing_config",
                     "--out", str(tmp_path)]) == 2
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command,name,key", [
        ("check", "mode_market", "market"),
        ("session", "session_mean", "market"),
        ("session", "session_mean", "r0"),
        ("extract", "extract_mode", "market")])
    def test_missing_entry_exit_two(self, tmp_path, capsys, command, name,
                                    key):
        cfg = load_config(name)
        del cfg[key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err

    @pytest.mark.parametrize("market,reason", [
        ({"family": "quantile", "alpha": 1.5}, "quantile level"),
        ({"family": "expectile", "tau": 0}, "expectile level"),
        ({"family": "expectile", "tau": 0.3, "g_coeffs": [0.0, 1.0, -1.0]},
         "positive curvature"),
        ({"family": "weighted_mode", "outcomes": [1, 2], "weights": [1, 0]},
         "weights must be positive"),
        ({"family": "quantile", "alpha": 0.4, "alhpa": 3}, "alhpa")])
    def test_rejected_constructor_value_exit_two(self, tmp_path, capsys,
                                                 market, reason):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "market": market,
                                    "r0": 0.0, "axioms": ["WCL"]}))
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("matrix,reports,axiom", [
        # ARB held although row 2 was never scored
        ([[1.0, 0.0], [0.0, 1.0]], ["a", "a"], "ARB"),
        # WN found no scenario, an internal error
        ([[1.0, 0.0]], None, "WN")])
    def test_finite_rule_needs_two_distinct_reports_exit_two(
            self, tmp_path, capsys, matrix, reports, axiom):
        market = {"family": "finite", "outcomes": [0, 1], "matrix": matrix}
        if reports is not None:
            market["reports"] = reports
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "market": market,
                                    "axioms": [axiom]}))
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "distinct report label" in err

    def test_one_report_grid_exit_two(self, tmp_path, capsys):
        # the simplex hull leaves one report of the 2 x 2 grid: IC died on
        # an empty array, and ARB and PN held over null trades alone
        market = {"family": "expectation",
                  "potential": {"name": "simplex_negentropy", "k": 2},
                  "phi": [[0, 0], [1, 0], [0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "market": market,
                                    "axioms": ["IC", "ARB", "PN"],
                                    "search": {"report_points": 2}}))
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "at least two reports, not 1" in err
        assert not (tmp_path / "out").exists()

    def test_missing_axioms_exit_two(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({
            "name": "typo", "market": {"family": "mode", "outcomes": [1, 2]},
            "axiom": ["WN"], "expected": {"WN": "holds"}}))
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("edit,reason", [
        (lambda c: c["btb"].pop("belief"), "'belief'"),
        (lambda c: c.setdefault("search", {}).update(report_ponits=5),
         "report_ponits"),
        (lambda c: c.update(serach={}), "serach"),
        # BTB's budgets live in the btb block alone
        (lambda c: c["search"].update(epsilons=[-0.5]), "epsilons"),
        (lambda c: c["axioms"].remove("BTB") or c["expected"].pop("BTB"),
         "btb"),
        (lambda c: c.pop("r0"), "'r0'"),
        (lambda c: c["market"].pop("outcomes"), "'outcomes'"),
        (lambda c: c.update(r0=7), "r0 7"),
        (lambda c: c["btb"].update(state=2), "precondition")])
    def test_config_typo_exit_two(self, tmp_path, capsys, edit, reason):
        # a missing need, a misspelt search key, an unknown top-level key,
        # budgets in the search block, a block no axiom run reads, WCL
        # without its initial state, a market without its outcomes, an
        # initial state outside the reports, and a BTB state at the
        # belief's statistic
        cfg = load_config("mode_market")
        edit(cfg)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert reason in err

    def test_internal_error_exit_three(self, tmp_path, capsys, monkeypatch):
        from srmarket import axioms

        def broken(*args):
            raise RuntimeError("checker fault")

        monkeypatch.setattr(axioms, "check_wcl", broken)
        assert main(["check", "--config", "mode_market",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.endswith("\ninternal error: RuntimeError: checker fault\n")

    @pytest.mark.parametrize("command,name,edit,reason", [
        # phi / b overflows a float
        ("extract", "extract_ratio", lambda c: c["market"].update(
            phi=[1e300, 1.0, 3.0], b=[1e-300, 1.0, 1.0]), "payoff point"),
        # report grids whose payoffs overflow a float
        ("check", "expectile_market",
         lambda c: c["search"].update(report_window=[-1e300, 3.0]),
         "payoffs must be finite"),
        ("check", "mean_unbounded",
         lambda c: c["search"].update(report_window=[-1e300, 3.0]),
         "payoffs must be finite")])
    def test_overflowing_config_exit_two(self, tmp_path, command, name, edit,
                                         reason):
        # a fresh interpreter, where a numpy warning would reach stderr
        cfg = load_config(name)
        edit(cfg)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg))
        src = os.path.dirname(os.path.dirname(srmarket.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "srmarket.cli", command, "--config",
             str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert proc.stderr.count("\n") == 1 and reason in proc.stderr

    def test_jobs_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", "mode_market", "--out", str(tmp_path),
                  "--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,name,flag", [
        ("extract", "extract_entropy", "--seed"),
        ("figure", "fig_mode_position", "--seed"),
        ("session", "session_mean", "--seed"),
        ("session", "session_mean", "--expect"),
        ("extract", "extract_entropy", "--expect"),
        ("figure", "fig_mode_position", "--expect")])
    def test_flag_the_command_does_not_read_is_a_usage_error(
            self, tmp_path, command, name, flag):
        golden = tmp_path / "golden.json"
        golden.write_text("{}")
        value = "1" if flag == "--seed" else str(golden)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", name, "--out", str(tmp_path / "out"),
                  flag, value])
        assert exc.value.code == 2

    def test_one_parser_serves_successive_calls(self, tmp_path, monkeypatch):
        # the parser is built once per process; each call's flags reach its
        # own command, and --seed does not carry into the next call
        seen = []
        for run in ("run_check", "run_figure"):
            monkeypatch.setattr(cli, run, lambda config, out, run=run:
                                seen.append((run, config, out)) or 0)
        assert main(["check", "--config", "mode_market", "--seed", "11",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["figure", "--config", "fig_mode_position",
                     "--out", str(tmp_path / "b")]) == 0
        assert cli._parser() is cli._parser()
        (run_a, config_a, out_a), (run_b, config_b, out_b) = seen
        assert (run_a, out_a) == ("run_check", str(tmp_path / "a"))
        assert config_a == {**load_config("mode_market"), "seed": 11}
        assert (run_b, out_b) == ("run_figure", str(tmp_path / "b"))
        assert config_b == load_config("fig_mode_position")

    @pytest.mark.parametrize("command,name,edit,reason", [
        # traders, outcome, grid, ic_beliefs, expected, trials, market,
        # axioms
        ("session", "session_mean", lambda c: c["traders"][0].pop("belief"),
         "'belief'"),
        ("session", "session_mean", lambda c: c.update(traders="abc"),
         "'traders'"),
        ("session", "session_mean", lambda c: c.update(outcome="abc"), "'abc'"),
        ("session", "session_mean", lambda c: c.update(seed=29), "seed"),
        ("extract", "extract_entropy", lambda c: c["grid"].pop("num"), "'num'"),
        ("extract", "extract_entropy", lambda c: c["grid"].update(num="x"),
         "extract grid"),
        ("extract", "extract_entropy", lambda c: c.update(grid=5),
         "extract grid"),
        ("check", "mode_market", lambda c: c.update(ic_beliefs=5),
         "'ic_beliefs'"),
        ("check", "mode_market", lambda c: c.update(expected=["WN"]),
         "'expected'"),
        ("check", "lmsr_open", lambda c: c.update(
            axioms=["PRICE-BOUND"], expected={}, price_bound_trials="x"),
         "'price_bound_trials'"),
        ("check", "mode_market", lambda c: c.update(market=5), "market block"),
        ("check", "mode_market", lambda c: c.update(axioms=5), "'axioms'"),
        # shapes that exited 3: a belief of the wrong kind for the market,
        # scalar or misshapen figure, search, btb and seed values, and an
        # extract grid report outside the report space
        ("session", "session_mean", lambda c: c.update(
            market={"family": "mode", "outcomes": [1, 2]}, r0=1, outcome=1),
         "belief of trader 't1'"),
        ("figure", "fig_mode_position", lambda c: c.update(trade=5), "'trade'"),
        ("figure", "fig_mode_position", lambda c: c.update(trade=[1, 2, 3]),
         "'trade'"),
        ("check", "expectile_market",
         lambda c: c["search"].update(report_window=3), "'report_window'"),
        ("check", "expectile_market",
         lambda c: c["search"].update(report_window=[4, -4]), "report_window"),
        ("check", "expectile_market",
         lambda c: c["search"].update(report_points=2.5), "'report_points'"),
        ("check", "mode_market", lambda c: c["btb"].update(epsilons=0.5),
         "'epsilons'"),
        ("extract", "extract_entropy", lambda c: c.update(grid=[0.1, 5.0]),
         "extract grid"),
        ("check", "mode_market", lambda c: c.update(seed="x"), "'seed'"),
        ("figure", "fig_mean_position", lambda c: c.update(points="x"),
         "'points'"),
        ("figure", "fig_discretized_lmsr", lambda c: c.update(bound=2.5),
         "'bound'"),
        ("figure", "fig_mean_position", lambda c: c.update(contracts="ab"),
         "'contracts'"),
        # accepted before: linspace read the window's one end as start and
        # the point count as stop
        ("figure", "fig_mean_position", lambda c: c.update(window=[1]),
         "'window'"),
        # empty or zero budgets, which let BTB and WN hold over nothing
        ("check", "mode_market", lambda c: c["btb"].update(epsilons=[]),
         "'epsilons'"),
        ("check", "expectile_market",
         lambda c: c["search"].update(scenario_count=0), "scenario_count"),
        # a numeric string, which the check ran as a report and wrote into
        # its WCL witness
        ("check", "quantile_sigmoid", lambda c: c.update(r0="1.0"),
         "r0 '1.0'")])
    def test_value_of_the_wrong_shape_exit_two(self, tmp_path, capsys, command,
                                               name, edit, reason):
        self._assert_config_error(tmp_path, capsys, command, name, edit, reason)

    @pytest.mark.parametrize("command,name,edit,reason", [
        # a potential, a share space, belief specs, figures
        ("session", "session_mean",
         lambda c: c["market"]["potential"].update(dimm=2), "dimm"),
        ("check", "discretized_lmsr",
         lambda c: c["market"]["shares"].update(kk=3), "kk"),
        ("check", "discretized_lmsr",
         lambda c: c["market"]["shares"].update(basis=[[1.0]]), "basis"),
        ("session", "session_mean",
         lambda c: c["traders"][0]["belief"].update(pmff=[1]), "pmff"),
        ("session", "session_mean",
         lambda c: c["traders"][0]["belief"].update(pmf=[1]), "exactly one"),
        ("session", "session_mean", lambda c: c["traders"][0].update(
            belief={"cdf": {"x": [0, 1], "F": [0, 1], "G": 1}}), "'G'"),
        ("figure", "fig_mode_position", lambda c: c.update(r_lfet=2), "r_lfet"),
        ("figure", "fig_mean_position", lambda c: c.update(seed=1), "seed")])
    def test_unknown_nested_key_exit_two(self, tmp_path, capsys, command, name,
                                         edit, reason):
        self._assert_config_error(tmp_path, capsys, command, name, edit, reason)

    @staticmethod
    def _assert_config_error(tmp_path, capsys, command, name, edit, reason):
        cfg = load_config(name)
        edit(cfg)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert reason in err

    def test_expect_file_override(self, tmp_path):
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps({"WN": "holds"}))
        code = main(["check", "--config", "mode_market",
                     "--out", str(tmp_path), "--expect", str(golden)])
        assert code == 1

    @pytest.mark.parametrize("golden,expected", [
        ([["WN", "holds"]], {"WN": "fails"}), ({"WN": "fails"}, ["WN"])])
    def test_expect_needs_objects(self, tmp_path, capsys, golden, expected):
        cfg = load_config("mode_market")
        cfg["expected"] = expected
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        (tmp_path / "golden.json").write_text(json.dumps(golden))
        assert main(["check", "--config", str(path), "--out", str(tmp_path),
                     "--expect", str(tmp_path / "golden.json")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_seed_flag_changes_hash(self, tmp_path):
        main(["check", "--config", "expectile_market",
              "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["check", "--config", "expectile_market",
              "--out", str(tmp_path / "s2"), "--seed", "2"])
        a = json.loads((tmp_path / "s1" /
                        "expectile_market__summary.json").read_text())
        b = json.loads((tmp_path / "s2" /
                        "expectile_market__summary.json").read_text())
        assert a["config_sha256"] != b["config_sha256"]
        assert a["verdicts"] == b["verdicts"]


def _read_dat(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        rows.append([float(v) for v in line.split()])
    return rows

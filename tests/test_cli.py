"""Config-driven orchestration: builders, exit codes, report determinism,
bundled configs, and figure data."""

import json
import math
import os
import subprocess
import sys

import pytest

import srmarket
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
from srmarket.scoring import ExpectationRule, ModeRule, QuantileRule


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


class TestExtractCommand:
    def test_entropy_extract_ok(self, tmp_path):
        assert run_extract(load_config("extract_entropy"), str(tmp_path)) == 0
        text = (tmp_path / "extract_entropy__extract.txt").read_text()
        assert "ok: True" in text

    def test_mode_extract_expected_failure(self, tmp_path):
        assert run_extract(load_config("extract_mode"), str(tmp_path)) == 0
        text = (tmp_path / "extract_mode__extract.txt").read_text()
        assert "failure_step: subgroup" in text

    def test_ratio_extract_expected_failure(self, tmp_path):
        assert run_extract(load_config("extract_ratio"), str(tmp_path)) == 0


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
        (lambda c: c["axioms"].remove("BTB") or c["expected"].pop("BTB"),
         "btb"),
        (lambda c: c.pop("r0"), "'r0'"),
        (lambda c: c["market"].pop("outcomes"), "'outcomes'"),
        (lambda c: c.update(r0=7), "r0 7"),
        (lambda c: c["btb"].update(state=2), "precondition")])
    def test_config_typo_exit_two(self, tmp_path, capsys, edit, reason):
        # a missing need, a misspelt search key, an unknown top-level key,
        # a block no axiom run reads, WCL without its initial state, a
        # market without its outcomes, an initial state outside the
        # reports, and a BTB state at the belief's statistic
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

    def test_session_seed_flag_changes_hash(self, tmp_path):
        headers = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["session", "--config", "session_mean",
                         "--out", str(out), "--seed", seed]) == 0
            text = (out / "session_mean__session.txt").read_text()
            headers.append(text.splitlines()[2])
        assert headers[0].startswith("# config_sha256:")
        assert headers[0] != headers[1]

    @pytest.mark.parametrize("command,name,edit,reason", [
        # traders, outcome, grid, ic_beliefs, expected, trials, market,
        # axioms
        ("session", "session_mean", lambda c: c["traders"][0].pop("belief"),
         "'belief'"),
        ("session", "session_mean", lambda c: c.update(traders="abc"),
         "'traders'"),
        ("session", "session_mean", lambda c: c.update(outcome="abc"), "'abc'"),
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
         lambda c: c["search"].update(scenario_count=0), "scenario_count")])
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

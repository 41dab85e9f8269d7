import json
import shutil
from pathlib import Path

import pytest

from monocat.cli import main
from monocat.fixtures import strict_f3_z2
from monocat.watts import MalformedTensor, check_monoidal_axioms

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent.parent / "src" / "monocat" / "fixtures"

GOLDEN_CASES = {
    "validate-fibonacci.json":
        ["--format", "json", "validate", "fusion-fibonacci"],
    "embed-fib-tau.json":
        ["--format", "json", "embed", "fusion-fibonacci", "tau"],
    "embed-fib-tau.txt":
        ["embed", "fusion-fibonacci", "tau"],
    "bound-fib-tau.json":
        ["--format", "json", "bound", "fusion-fibonacci", "tau",
         "--n-max", "5"],
    "watts-dual-numbers.json":
        ["--format", "json", "watts", "dual-numbers-f2"],
    "watts-strict-axioms.json":
        ["--format", "json", "watts", "strict-f3-z2", "--checks", "axioms"],
    "report-seed7.json":
        ["--format", "json", "report", "--seed", "7"],
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_golden(self, capsys, monkeypatch, name):
        monkeypatch.delenv("MONOCAT_FIXTURES", raising=False)
        code, out, _ = run(capsys, GOLDEN_CASES[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    def test_failing_run_with_a_duplicate_module(self, capsys, tmp_path,
                                                 monkeypatch):
        # graded-sign with ω(0,1,1) negated and L repeated as L2: the
        # failure witnesses of a sample holding two modules of one content
        data = json.loads((FIXTURES / "graded-sign.json").read_text())
        for triple in data["tensor"]["cocycle"]:
            if triple[:3] == [0, 1, 1]:
                triple[3] = -triple[3]
        L = next(m for m in data["modules"] if m["name"] == "L")
        data["modules"].append(dict(L, name="L2"))
        (tmp_path / "graded-flipped-dup.json").write_text(
            json.dumps(data), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["--format", "json", "watts",
                                    "graded-flipped-dup.json"])
        assert code == 1
        golden = GOLDEN / "watts-graded-flipped-dup.json"
        assert out == golden.read_text(encoding="utf-8")

    def test_repeat_runs_byte_identical(self, capsys):
        argv = GOLDEN_CASES["watts-strict-axioms.json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_json_reports_carry_schema(self):
        for name in GOLDEN_CASES:
            if name.endswith(".json"):
                data = json.loads((GOLDEN / name).read_text())
                assert data["schema"] == 1


class TestExitCodes:
    def test_unknown_fixture_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["validate", "no-such-fixture"])
        assert code == 2 and "no-such-fixture" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, ["validate", str(bad)])
        assert code == 2

    def test_wrong_fixture_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["watts", "fusion-fibonacci"])
        assert code == 2
        code, _, _ = run(capsys, ["embed", "strict-f3-z2", "x"])
        assert code == 2

    def test_unknown_check_group_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["watts", "strict-f3-z2",
                                  "--checks", "nonsense"])
        assert code == 2

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_check_list_is_usage_error(self, capsys, checks):
        code, out, err = run(capsys, ["watts", "strict-f3-z2",
                                      "--checks", checks])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "no check group" in err

    @pytest.mark.parametrize("argv", [
        ["bound", "fusion-fibonacci", "tau", "--n-max", "0"],
        ["--n-max", "0", "bound", "fusion-fibonacci", "tau"],
        ["--format", "json", "report", "--n-max", "-1"],
    ])
    def test_n_max_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "positive integer" in out.err

    def test_fraction_undefined_in_characteristic_is_usage_error(
            self, capsys, tmp_path):
        data = json.loads((FIXTURES / "strict-f3-z2.json").read_text())
        data["modules"][1]["action"][1] = [["1/3"]]
        path = tmp_path / "third.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["watts", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert "1/3" in err

    @pytest.mark.parametrize("case", [
        "mult-too-long", "mult-too-short", "unit-too-short",
        "extra-action", "missing-action", "side-up"])
    def test_malformed_shape_is_usage_error(self, capsys, tmp_path, case):
        data = json.loads((FIXTURES / "strict-f3-z2.json").read_text())
        algebra, module = data["algebra"], data["modules"][1]
        if case == "mult-too-long":
            algebra["mult"][0][1].append(0)
        elif case == "mult-too-short":
            algebra["mult"][1][1].pop()
        elif case == "unit-too-short":
            algebra["unit"].pop()
        elif case == "extra-action":
            module["action"].append([[1]])
        elif case == "missing-action":
            module["action"].pop()
        else:
            module["side"] = "up"
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["watts", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("value", [-1.5, True])
    def test_non_integer_cocycle_value_is_usage_error(self, capsys, tmp_path,
                                                      value):
        data = json.loads((FIXTURES / "graded-sign.json").read_text())
        for row in data["tensor"]["cocycle"]:
            if row[:3] == [1, 1, 1]:
                row[3] = value
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["--format", "json", "watts", str(path),
                                      "--checks", "axioms"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert repr(value) in err

    @pytest.mark.parametrize("case, fragment", [
        ("graded-unit-not-a-line", "unit must be the trivial line"),
        ("graded-char-2", "needs characteristic ≠ 2"),
        ("graded-idempotent", "graded tensor expects K[Z/2]"),
        ("duplicate-name", "sample module names repeat: ['Sp']"),
        ("R-not-regular", "the sample module R is not the regular module"),
        ("module-dim", "Sp: dim 5 but 1 basis labels"),
        ("algebra-dim", ": dim 3 but 2 basis labels"),
        ("boolean-dim", "Sp: dim True but 1 basis labels"),
        ("empty-sample", "strict-f3-z2: the sample lists no modules"),
        ("graded-missing-triple", "cocycle misses the triples [(1, 1, 1)]"),
        ("graded-outside-triple",
         "cocycle triples outside {0,1}³: [(2, 0, 0)]"),
        ("graded-repeated-triple",
         "graded-sign: the cocycle lists the triple (1, 1, 1) twice"),
        ("graded-zero-value",
         "cocycle value at (0, 0, 1) must be 1 or -1, got 0")])
    def test_inconsistent_watts_fixture_is_usage_error(self, capsys, tmp_path,
                                                       case, fragment):
        source = "graded-sign" if case.startswith("graded") else \
            "strict-f3-z2"
        data = json.loads((FIXTURES / f"{source}.json").read_text())
        algebra, modules = data["algebra"], data["modules"]
        byname = {m["name"]: m for m in modules}
        if case == "graded-unit-not-a-line":
            data["tensor"]["unit"] = "R"
        elif case == "graded-char-2":
            algebra["char"] = 2
            byname["L"]["action"][1] = [[1]]  # a module over F2[Z/2]
        elif case == "graded-idempotent":
            # basis (1, e) with e·e = e, and valid modules over it
            algebra["mult"] = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
            byname["L"]["action"][1] = [[0]]
            byname["R"]["action"][1] = [[0, 0], [1, 1]]
            data.update(sequences=[], rigidity=[])
        elif case == "duplicate-name":
            modules.append(byname["Sp"])
        elif case == "R-not-regular":
            # a valid module whose only fault is its name
            byname["R"]["action"][1] = [[1, 0], [0, 1]]
            data["sequences"] = []
        elif case == "module-dim":
            modules[1]["dim"] = 5
        elif case == "algebra-dim":
            algebra["dim"] = 3
        elif case == "empty-sample":
            data.update(modules=[], sequences=[], rigidity=[])
        elif case == "graded-missing-triple":
            data["tensor"]["cocycle"].remove([1, 1, 1, -1])
        elif case == "graded-outside-triple":
            data["tensor"]["cocycle"].append([2, 0, 0, 1])
        elif case == "graded-repeated-triple":
            data["tensor"]["cocycle"].append([1, 1, 1, 1])
        elif case == "graded-zero-value":
            data["tensor"]["cocycle"].remove([0, 0, 1, 1])
            data["tensor"]["cocycle"].append([0, 0, 1, 0])
        else:
            modules[1]["dim"] = True
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["--format", "json", "watts", str(path),
                                      "--checks", "axioms"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert fragment in err

    @pytest.mark.parametrize("command", ["watts", "report"])
    def test_construction_failure_is_a_failed_check(
            self, capsys, tmp_path, monkeypatch, command):
        # the groups that ran before the failing construction keep their
        # reports: here the axioms, which run before T
        fx = strict_f3_z2()
        axioms = check_monoidal_axioms(fx.ct, fx.sample).to_json()["checks"]
        assert all(check["ok"] for check in axioms)

        def broken(wc):
            raise MalformedTensor("α′ is not invertible")

        monkeypatch.setattr("monocat.cli.check_T_coherence", broken)
        shutil.copy(FIXTURES / "strict-f3-z2.json", tmp_path)
        monkeypatch.setenv("MONOCAT_FIXTURES", str(tmp_path))
        argv = ["--format", "json", command] + \
            (["strict-f3-z2"] if command == "watts" else [])
        code, out, err = run(capsys, argv)
        assert code == 1 and err == ""
        payload = json.loads(out)
        report = payload["report"] if command == "watts" else \
            payload["fixtures"]["strict-f3-z2"]
        failure = {"name": "pipeline-construction", "ok": False,
                   "witness": {"error": "MalformedTensor",
                               "detail": "α′ is not invertible"}}
        assert not report["ok"]
        assert report["checks"] == sorted(axioms + [failure],
                                          key=lambda check: check["name"])

    def test_unknown_simple_is_data_error(self, capsys):
        code, _, _ = run(capsys, ["embed", "fusion-fibonacci", "sigma"])
        assert code == 1

    @pytest.mark.parametrize("argv,token", [
        (["embed", "fusion-fibonacci", "foo"], "'foo'"),
        (["embed", "fusion-fibonacci", "0*tau"], "'0'"),
        (["bound", "fusion-fibonacci", "0"], "'0'"),
    ])
    def test_unknown_simple_names_the_token_and_the_simples(
            self, capsys, argv, token):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert token in err
        assert "simples are 1, tau" in err

    def test_broken_unit_law_fails_validation(self, capsys, tmp_path):
        data = json.loads(
            (FIXTURES / "fusion-fibonacci.json").read_text())
        data["fusion"].append(["1", "tau", "1", 1])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["--format", "json", "validate",
                                    str(path)])
        assert code == 1
        rep = json.loads(out)["report"]
        assert not rep["ok"] and rep["failures"]

    def test_mutated_duality_data_fails_watts(self, capsys, tmp_path):
        data = json.loads((FIXTURES / "graded-sign.json").read_text())
        for rig in data["rigidity"]:
            if rig["object"] == "L":
                rig["db"] = [[1]]
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["--format", "json", "watts", str(path),
                                    "--checks", "rigidity"])
        assert code == 1
        checks = json.loads(out)["report"]["checks"]
        snakes = [c for c in checks
                  if c["name"].startswith("snake") and not c["ok"]]
        assert snakes and "witness" in snakes[0]


class TestFixtureDirOverride:
    def test_env_var_redirects_lookup(self, capsys, tmp_path, monkeypatch):
        shutil.copy(FIXTURES / "fusion-fibonacci.json",
                    tmp_path / "local.json")
        monkeypatch.setenv("MONOCAT_FIXTURES", str(tmp_path))
        code, _, _ = run(capsys, ["embed", "local", "tau"])
        assert code == 0
        # bundled names are hidden once the override is in force
        code, _, _ = run(capsys, ["embed", "fusion-ising", "sigma"])
        assert code == 2

    def test_report_rejects_a_boolean_scalar(self, capsys, tmp_path,
                                             monkeypatch):
        data = json.loads((FIXTURES / "strict-f3-z2.json").read_text())
        data["modules"][0]["action"][0][0][0] = True
        (tmp_path / "boolean.json").write_text(json.dumps(data),
                                               encoding="utf-8")
        monkeypatch.setenv("MONOCAT_FIXTURES", str(tmp_path))
        code, out, err = run(capsys, ["--format", "json", "report"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert "True" in err

    @pytest.mark.parametrize("value", [1.9, True])
    def test_report_rejects_a_non_integer_multiplicity(
            self, capsys, tmp_path, monkeypatch, value):
        data = json.loads((FIXTURES / "fusion-fibonacci.json").read_text())
        data["fusion"][0][3] = value
        (tmp_path / "fusion.json").write_text(json.dumps(data),
                                              encoding="utf-8")
        monkeypatch.setenv("MONOCAT_FIXTURES", str(tmp_path))
        code, out, err = run(capsys, ["--format", "json", "report"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert repr(value) in err

    def test_report_refuses_empty_override(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("MONOCAT_FIXTURES", str(tmp_path))
        code, out, err = run(capsys, ["--format", "json", "report"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(tmp_path) in err

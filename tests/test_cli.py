import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

import monocat.algmod as algmod
import monocat.linalg as linalg
import monocat.watts as watts
from monocat.cli import main
from monocat.fixtures import bundled_watts_fixtures
from monocat.watts import MalformedTensor, check_monoidal_axioms

from helpers import bundled

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent.parent / "src" / "monocat" / "fixtures"
SCRIPTS = str(Path(__file__).resolve().parent.parent / "scripts")

# the goldens' one manifest is the script that writes them
sys.path.insert(0, SCRIPTS)
try:
    from make_golden import CASES as GOLDEN_CASES
    from make_golden import FLIPPED_DUP, flipped_dup_fixture
finally:
    sys.path.remove(SCRIPTS)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def bundled_report():
    """``monocat --format json report`` on the bundled fixtures, run once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("MONOCAT_FIXTURES", raising=False)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["--format", "json", "report"]) == 0
    return json.loads(out.getvalue())


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_golden(self, capsys, monkeypatch, name):
        monkeypatch.delenv("MONOCAT_FIXTURES", raising=False)
        code, out, _ = run(capsys, GOLDEN_CASES[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    def test_failing_run_with_a_duplicate_module(self, capsys, tmp_path,
                                                 monkeypatch):
        # the failure witnesses of a sample holding two modules of one
        # content
        (tmp_path / "graded-flipped-dup.json").write_text(
            json.dumps(flipped_dup_fixture()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["--format", "json", "watts",
                                    "graded-flipped-dup.json"])
        assert code == 1
        assert out == (GOLDEN / FLIPPED_DUP).read_text(encoding="utf-8")

    def test_every_golden_file_has_a_case(self):
        assert sorted(p.name for p in GOLDEN.iterdir()) == \
            sorted([*GOLDEN_CASES, FLIPPED_DUP])

    @pytest.mark.parametrize("fixture", sorted(bundled_watts_fixtures()))
    def test_report_section_is_the_watts_report(
            self, capsys, monkeypatch, bundled_report, fixture):
        # the report's watts fixtures share one cell table; each section is
        # still what ``watts`` prints for its fixture alone
        monkeypatch.delenv("MONOCAT_FIXTURES", raising=False)
        code, out, _ = run(capsys, ["--format", "json", "watts", fixture])
        assert code == 0
        assert bundled_report["fixtures"][fixture] == json.loads(out)["report"]

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


def test_report_takes_the_kernel_shortcuts(capsys, monkeypatch):
    # a guard on the fast paths: with gathered inclusions flagged, zero
    # terms of the graded α skipped and each tensor_over product built
    # once, ``report --seed 7`` makes 2,369 full products (6,789 without)
    monkeypatch.delenv("MONOCAT_FIXTURES", raising=False)
    calls = []
    mul_rows = linalg._mul_rows
    monkeypatch.setattr(linalg, "_mul_rows",
                        lambda *args: calls.append(1) or mul_rows(*args))
    code, out, _ = run(capsys, GOLDEN_CASES["report-seed7.json"])
    assert code == 0 and out
    assert len(calls) <= 2500


def test_report_transports_at_the_endpoints(capsys, monkeypatch):
    # a guard on the endpoint routes: α′ and ξ take c at their endpoints,
    # so no D(X⊙Y,Z), D(X,Y⊙Z) or D(D(R,X),Y) is built, and ``report
    # --seed 7`` builds 84 balanced tensors (118 through those cells)
    monkeypatch.delenv("MONOCAT_FIXTURES", raising=False)
    calls = []
    build = algmod.balanced_tensor
    monkeypatch.setattr(algmod, "balanced_tensor",
                        lambda *args: calls.append(1) or build(*args))
    code, out, _ = run(capsys, GOLDEN_CASES["report-seed7.json"])
    assert code == 0 and out
    assert len(calls) <= 90


def test_report_takes_the_structure_maps_as_they_are(capsys, monkeypatch):
    # a guard on the transported maps: ν, c, c⁻¹ and α′ carry their
    # modules, so no caller looks a product up to wrap them again, and
    # ``report --seed 7`` makes 5,877 product calls (6,746 with the lookups)
    monkeypatch.delenv("MONOCAT_FIXTURES", raising=False)
    calls = []
    product = watts.CustomTensor.product
    monkeypatch.setattr(watts.CustomTensor, "product",
                        lambda self, *args: calls.append(1)
                        or product(self, *args))
    code, out, _ = run(capsys, GOLDEN_CASES["report-seed7.json"])
    assert code == 0 and out
    assert len(calls) <= 5900


class TestExitCodes:
    def test_unknown_fixture_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", "no-such-fixture"])
        assert code == 2 and "no-such-fixture" in err
        # a .json path is read as a file, and an unreadable one is named
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, ["watts", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read fixture {path}")

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, ["validate", str(bad)])
        assert code == 2
        bad.write_text("[1, 2]", encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(bad)])
        assert code == 2 and out == ""
        assert err == "error: fixture must be a JSON object\n"

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
         "cocycle value at (0, 0, 1) must be 1 or -1, got 0"),
        ("boolean-char", "char: expected an integer, got False"),
        ("float-char", "char: expected an integer, got 0.0"),
        ("float-prime-char", "char: expected an integer, got 3.0"),
        ("graded-unknown-unit",
         "graded-sign: tensor.unit: no sample module named 'Nope'"),
        ("unknown-sequence-space",
         "strict-f3-z2: sequences[1].spaces: no sample module named 'Nope'"),
        ("graded-unknown-dual",
         "graded-sign: rigidity[1].dual: no sample module named 'Nope'"),
        ("numeric-sequence-name",
         "sequences[1].name: expected a string, got 5"),
        ("repeated-sequence-name",
         "strict-f3-z2: sequence names repeat: ['R-(1-g)-R-Sp']"),
        ("unknown-tensor-kind",
         "strict-f3-z2: unknown tensor kind 'braided'"),
        ("sequence-g-after-f-nonzero", "R-(1-g)-R-Sp: g∘f ≠ 0"),
        ("sequence-g-not-onto", "R-(1-g)-R-Sp: g is not surjective"),
        ("sequence-f-not-injective", "R-(1-g)-R-Sp: f is not injective")])
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
        elif case.endswith("-char"):
            # ℚ would load: the sample without Sm is a valid ℚ[Z/2] sample
            algebra["char"] = {"boolean-char": False, "float-char": 0.0,
                               "float-prime-char": 3.0}[case]
            modules.remove(byname["Sm"])
            data["sequences"] = []
        elif case == "graded-unknown-unit":
            data["tensor"]["unit"] = "Nope"
        elif case == "unknown-sequence-space":
            data["sequences"][1]["spaces"][0] = "Nope"
        elif case == "graded-unknown-dual":
            data["rigidity"][1]["dual"] = "Nope"
        elif case == "numeric-sequence-name":
            data["sequences"][1]["name"] = 5
        elif case == "repeated-sequence-name":
            data["sequences"][1]["name"] = data["sequences"][0]["name"]
        elif case == "unknown-tensor-kind":
            data["tensor"]["kind"] = "braided"
        elif case == "sequence-g-after-f-nonzero":
            data["sequences"][0]["f"] = [[1, 0], [0, 1]]
        elif case == "sequence-g-not-onto":
            data["sequences"][0]["g"] = [[0, 0]]
        elif case == "sequence-f-not-injective":
            # R -(1-g)-> R -> Sp is exact, but 1-g has a kernel
            data["sequences"][0]["exactness"] = "short-exact"
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
        fx = bundled("strict-f3-z2")
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

    @pytest.mark.parametrize("expr", ["tau+", "", "tau*"])
    def test_malformed_expression_is_usage_error(self, capsys, expr):
        code, out, err = run(capsys, ["embed", "fusion-fibonacci", expr])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {expr!r}: expected ")
        assert "at position" in err and "None" not in err

    def test_unknown_simple_is_data_error(self, capsys):
        # an unknown simple is malformed input, not a failed check
        code, _, _ = run(capsys, ["embed", "fusion-fibonacci", "sigma"])
        assert code == 2

    @pytest.mark.parametrize("argv,token", [
        (["embed", "fusion-fibonacci", "foo"], "'foo'"),
        (["embed", "fusion-fibonacci", "0*tau"], "'0'"),
        (["bound", "fusion-fibonacci", "0"], "'0'"),
    ])
    def test_unknown_simple_names_the_token_and_the_simples(
            self, capsys, argv, token):
        code, out, err = run(capsys, argv)
        assert code == 2
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

    @pytest.mark.parametrize("field,value,named", [
        ("endo_dim", [1, 1], "endo_dim"),
        ("endo_dim", 3, "endo_dim"),
        ("dual", {"1": "1", "tau": ["tau"]}, "dual['tau']"),
    ])
    def test_malformed_fusion_field_is_usage_error(self, capsys, tmp_path,
                                                   field, value, named):
        data = json.loads(
            (FIXTURES / "fusion-fibonacci.json").read_text())
        data[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and named in err

    NON_STRINGS = [True, None, 1.5, 2 ** 70]

    def _validate_mutated(self, capsys, tmp_path, source, mutate):
        """The stderr of ``validate`` on the bundled ``source`` after
        ``mutate``, asserted to be a usage error."""
        data = json.loads((FIXTURES / f"{source}.json").read_text())
        mutate(data)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("value", NON_STRINGS)
    def test_non_string_watts_fixture_name_is_usage_error(
            self, capsys, tmp_path, value):
        err = self._validate_mutated(capsys, tmp_path, "strict-f3-z2",
                                     lambda data: data.update(name=value))
        assert f"name: expected a string, got {value!r}" in err

    @pytest.mark.parametrize("value", NON_STRINGS)
    def test_non_string_fusion_fixture_name_is_usage_error(
            self, capsys, tmp_path, value):
        err = self._validate_mutated(capsys, tmp_path, "fusion-fibonacci",
                                     lambda data: data.update(name=value))
        assert f"name: expected a string, got {value!r}" in err

    @pytest.mark.parametrize("value", NON_STRINGS)
    def test_non_string_module_name_is_usage_error(self, capsys, tmp_path,
                                                    value):
        def mutate(data):
            data["modules"][1]["name"] = value
            data.update(sequences=[], rigidity=[])

        err = self._validate_mutated(capsys, tmp_path, "strict-f3-z2",
                                     mutate)
        assert f"module name: expected a string, got {value!r}" in err

    @pytest.mark.parametrize("value", NON_STRINGS)
    def test_non_string_basis_label_is_usage_error(self, capsys, tmp_path,
                                                    value):
        def mutate(data):
            data["modules"][1]["basis"][0] = value

        err = self._validate_mutated(capsys, tmp_path, "strict-f3-z2",
                                     mutate)
        assert f"basis label: expected a string, got {value!r}" in err

    @pytest.mark.parametrize("value", NON_STRINGS)
    def test_non_string_simple_label_is_usage_error(self, capsys, tmp_path,
                                                    value):
        # tau renamed to ``value`` throughout; ``embed`` raised on it
        def mutate(data):
            data["simples"][1] = value
            data["fusion"] = [[value if x == "tau" else x for x in row]
                              for row in data["fusion"]]
            data.update(dual={}, endo_dim={})

        err = self._validate_mutated(capsys, tmp_path, "fusion-fibonacci",
                                     mutate)
        assert f"simples: expected a string, got {value!r}" in err

    def test_a_unit_that_is_not_a_string_is_usage_error(self, capsys,
                                                        tmp_path):
        # ``bound`` hashed the list and raised
        data = json.loads((FIXTURES / "fusion-fibonacci.json").read_text())
        data["unit"] = ["1"]
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["bound", str(path), "tau"])
        assert code == 2 and out == ""
        assert "unit: expected a string, got ['1']" in err

    def test_a_basis_that_is_not_a_list_is_usage_error(self, capsys,
                                                       tmp_path):
        # a one-character string would read as one label
        def mutate(data):
            data["modules"][1]["basis"] = "x"

        err = self._validate_mutated(capsys, tmp_path, "strict-f3-z2",
                                     mutate)
        assert "Sp: basis: expected a list, got 'x'" in err

    def test_simples_that_are_not_a_list_are_usage_error(self, capsys,
                                                          tmp_path):
        # the string "1t" read as the two labels 1 and t
        err = self._validate_mutated(capsys, tmp_path, "fusion-fibonacci",
                                     lambda data: data.update(simples="1t"))
        assert "simples: expected a list, got '1t'" in err

    def test_a_fusion_triple_listed_twice_is_usage_error(self, capsys,
                                                         tmp_path):
        # the second entry overwrote the first: τ⊗τ loaded as 1 and
        # validated
        err = self._validate_mutated(
            capsys, tmp_path, "fusion-fibonacci",
            lambda data: data["fusion"].append(["tau", "tau", "tau", 0]))
        assert "fusion: the triple ['tau', 'tau', 'tau'] is listed twice" \
            in err

    def test_repeated_simples_are_usage_error(self, capsys, tmp_path):
        # they failed frobenius-reciprocity, exit 1
        err = self._validate_mutated(
            capsys, tmp_path, "fusion-fibonacci",
            lambda data: data["simples"].append("tau"))
        assert "simples: labels must be distinct" in err

    def test_an_endo_dim_key_that_is_no_simple_fails_validate(self, capsys,
                                                              tmp_path):
        # it was ignored, where an unknown dual key fails dual-membership
        data = json.loads((FIXTURES / "fusion-fibonacci.json").read_text())
        data["endo_dim"] = {"sigma": 2}
        path = tmp_path / "endo.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["--format", "json", "validate",
                                    str(path)])
        assert code == 1
        assert json.loads(out)["report"]["failures"] == [
            {"check": "endo-dim-membership", "witness": "sigma"}]

    @pytest.mark.parametrize("command", ["embed", "bound"])
    @pytest.mark.parametrize("failed", ["unit-membership",
                                        "multiplicity-domain"])
    def test_an_invalid_fusion_fixture_fails_embed_and_bound(
            self, capsys, tmp_path, command, failed):
        # embed printed a matrix, with a -1 block under a negative
        # multiplicity, and bound reported an End-dimension mismatch
        data = json.loads((FIXTURES / "fusion-fibonacci.json").read_text())
        if failed == "unit-membership":
            data["unit"] = "u"
        else:
            data["fusion"][0][3] = -1
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, [command, str(path), "tau"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "fails validate" in err
        assert failed in err

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

    def test_report_sections_name_only_their_own_modules(
            self, capsys, tmp_path, monkeypatch):
        # graded-sign next to a copy whose modules I and L are Q_I and Q_L:
        # the two share one cell table, and no name crosses between them
        text = (FIXTURES / "graded-sign.json").read_text(encoding="utf-8")
        (tmp_path / "graded-sign.json").write_text(text, encoding="utf-8")
        data = json.loads(text.replace('"I"', '"Q_I"')
                          .replace('"L"', '"Q_L"')
                          .replace('"L-R-I"', '"Q_L-R-Q_I"'))
        data["name"] = "graded-sign-renamed"
        (tmp_path / "graded-sign-renamed.json").write_text(
            json.dumps(data), encoding="utf-8")
        monkeypatch.setenv("MONOCAT_FIXTURES", str(tmp_path))
        code, out, _ = run(capsys, ["--format", "json", "report"])
        assert code == 0
        sections = json.loads(out)["fixtures"]
        own = json.dumps(sections["graded-sign"], ensure_ascii=False)
        other = json.dumps(sections["graded-sign-renamed"],
                           ensure_ascii=False)
        old_name = re.compile(r"(?<!\w)[IL](?!\w)")
        assert "Q_" not in own and old_name.search(own)
        assert "Q_L" in other and not old_name.search(other)

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dilatekit import cli
from dilatekit.cli import main as cli_main
from dilatekit.errors import (InvalidInput, InvalidParams, ParseError,
                              SchemaError, ShapeError)
from dilatekit.pipeline import run_pipeline
from dilatekit.scenario import (gen_example, load_scenario,
                                save_scenario, scenario_digest,
                                scenario_from_dict, serialize_scenario)

from oracles import same_scenario

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "scenarios"

ALL_KINDS = [
    ("bessel-cyclic", {"n": 3, "d": 3}),
    ("bessel-cyclic", {"n": 4, "d": 2}),
    ("framing-single", {"n": 3, "p": 2.0}),
    ("p-frame-cyclic", {"n": 4, "r": 2, "p": 1.0}),
    ("p-frame-cyclic", {"n": 2, "r": 2, "p": math.inf}),
    ("spectral-random", {"m": 3, "d": 3}),
    ("positive-random", {"m": 4, "d": 2}),
]


class TestRoundTrip:
    @pytest.mark.parametrize("kind,params", ALL_KINDS)
    def test_serialize_load_identical(self, kind, params, tmp_path):
        sc = gen_example(kind, params, seed=9)
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert same_scenario(sc, loaded)
        assert scenario_digest(sc) == scenario_digest(loaded)

    def test_dict_round_trip_is_bit_exact(self):
        sc = gen_example("positive-random", {"m": 2, "d": 3}, seed=3)
        data = json.loads(json.dumps(serialize_scenario(sc)))
        again = scenario_from_dict(data)
        assert np.array_equal(sc.ovm_atoms, again.ovm_atoms)

    def test_same_seed_same_digest(self):
        a = gen_example("p-frame-cyclic", {"n": 3, "r": 1, "p": 2.0}, seed=5)
        b = gen_example("p-frame-cyclic", {"n": 3, "r": 1, "p": 2.0}, seed=5)
        assert scenario_digest(a) == scenario_digest(b)


class TestGolden:
    def test_z2_bessel_loads(self):
        sc = load_scenario(GOLDEN / "z2_bessel.json")
        assert sc.group_table.shape == (2, 2)
        assert sc.space_dim == 2
        assert sc.payload == "ovm"

    @pytest.mark.parametrize("name", ["z2_bessel.json", "z3_regular_bessel.json",
                                      "d1_half_half.json",
                                      "z2_framing_trivial.json",
                                      "z2_framing_swap.json"])
    def test_all_golden_validate(self, name):
        sc = load_scenario(GOLDEN / name)
        report = run_pipeline(sc, "validate")
        assert report.passed


class TestSchemaErrors:
    def _base(self):
        return json.loads(json.dumps(
            serialize_scenario(gen_example("bessel-cyclic", {"n": 2, "d": 2},
                                           seed=1))))

    def test_group_entry_out_of_range(self):
        data = self._base()
        data["group"]["table"][0][1] = 5
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict(data)
        assert exc.value.field == "group.table"

    def test_missing_multiplier_is_noted(self):
        data = self._base()
        del data["multiplier"]
        sc = scenario_from_dict(data)
        assert any("multiplier" in n for n in sc.notes)
        report = run_pipeline(sc, "validate")
        assert report.passed
        assert any("multiplier missing" in c.notes for c in report.checks)

    def test_both_payloads_rejected(self):
        data = self._base()
        data["framing"] = {"windows": [[[1.0, 0.0], [0.0, 0.0]]],
                           "duals": [[[1.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(SchemaError):
            scenario_from_dict(data)

    def test_bad_norm(self):
        data = self._base()
        data["space"]["norm"] = "l7"
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict(data)
        assert exc.value.field == "space.norm"

    def test_rep_shape_error(self):
        data = self._base()
        data["rep"] = data["rep"][:1]
        with pytest.raises(ShapeError):
            scenario_from_dict(data)

    def test_action_shape_error(self):
        data = self._base()
        data["action"] = [[0, 1]]
        with pytest.raises(ShapeError):
            scenario_from_dict(data)

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "group": }')
        with pytest.raises(ParseError) as exc:
            load_scenario(path)
        assert exc.value.line == 2

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            gen_example("unknown-kind", {}, seed=0)

    @pytest.mark.parametrize("key", ["eps_residual", "eps_rank"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, key, value):
        data = self._base()
        data["tolerance"][key] = value
        with pytest.raises(InvalidInput, match="finite and positive"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("path,value", [
        (("space", "dim"), True),
        (("group", "order"), True),
        (("tolerance", "sample_count"), 2.9),
        (("tolerance", "seed"), 1.5),
        (("schema_version",), True),
    ], ids=lambda case: ".".join(case) if isinstance(case, tuple) else repr(case))
    def test_loose_integer_rejected(self, path, value):
        # n = d = 1, where True == 1 would pass every shape comparison
        data = json.loads(json.dumps(serialize_scenario(
            gen_example("bessel-cyclic", {"n": 1, "d": 1}, seed=1))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict(data)
        assert exc.value.field == ".".join(path)

    @pytest.mark.parametrize("path,value", [
        (("group", "table"), [[0, 1.9], [1, 0]]),
        (("group", "table"), [[0, 1], [True, 0]]),
        (("action",), [[0, 1.0], [1, 0.2]]),
        (("tolerance", "eps_residual"), True),
        (("tolerance", "eps_rank"), True),
    ], ids=lambda case: ".".join(case) if isinstance(case, tuple) else repr(case))
    def test_loose_table_or_tolerance_rejected(self, path, value, tmp_path):
        # each would load as the Z_2 table, the swap action or eps = 1.0
        data = self._base()
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict(data)
        assert exc.value.field == ".".join(path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert CliRunner().invoke(cli_main, ["validate", str(bad)]).exit_code == 2

    def test_integral_float_accepted(self):
        data = self._base()
        data["tolerance"]["sample_count"] = 3.0
        sample_count = scenario_from_dict(data).tolerance.sample_count
        assert sample_count == 3 and type(sample_count) is int


class TestGeneratedScenariosValidate:
    @pytest.mark.parametrize("kind,params", ALL_KINDS)
    def test_gen_passes_validate(self, kind, params):
        sc = gen_example(kind, params, seed=11)
        report = run_pipeline(sc, "validate")
        assert report.passed, [c.name for c in report.checks if not c.passed]


class TestSemigroupPath:
    def _semigroup_scenario(self):
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        return scenario_from_dict({
            "schema_version": 1,
            "group": {"order": 2, "table": [[0, 1], [1, 1]]},
            "space": {"dim": 2, "norm": "l2"},
            "action": [[0, 1], [0, 1]],
            "rep": [eye, eye],
            "ovm": {"atoms": [half, half]},
        })

    def test_validates_with_note(self):
        report = run_pipeline(self._semigroup_scenario(), "validate")
        assert report.passed
        assert any("semigroup" in c.notes for c in report.checks)

    def test_dilation_rejected_by_name(self):
        report = run_pipeline(self._semigroup_scenario(), "dilate-banach")
        assert not report.passed
        failed = [c.paper_item for c in report.checks if not c.passed]
        assert "dilation.applicability" in failed


class TestDeterminism:
    def test_reports_reproducible(self):
        sc = gen_example("bessel-cyclic", {"n": 3, "d": 2}, seed=4)
        r1 = run_pipeline(sc, "dilate-banach")
        r2 = run_pipeline(sc, "dilate-banach")
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("elapsed_seconds")
        d2.pop("elapsed_seconds")
        assert d1 == d2


class TestCli:
    def run(self, *args):
        return CliRunner().invoke(cli_main, list(args))

    def test_validate_golden(self):
        result = self.run("validate", str(GOLDEN / "z2_bessel.json"))
        assert result.exit_code == 0, result.output

    def test_dilate_hilbert_seven_checks_json(self):
        result = self.run("dilate-hilbert", str(GOLDEN / "z2_bessel.json"),
                          "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["pass"] and len(payload["checks"]) == 7

    def test_dilate_framing_check_codes(self):
        result = self.run("dilate-framing", str(GOLDEN / "z2_framing_swap.json"),
                          "--format", "json")
        assert result.exit_code == 0
        codes = [c["paper_item"] for c in json.loads(result.output)["checks"]]
        for tag in ("basis(a)", "basis(h)", "basis(i)"):
            assert tag in codes

    def test_gen_then_dilate(self, tmp_path):
        out = tmp_path / "gen.json"
        result = self.run("gen", "--kind", "p-frame-cyclic", "--n", "3",
                          "--r", "1", "--p", "inf", "--seed", "7",
                          "-o", str(out))
        assert result.exit_code == 0
        result = self.run("dilate-framing", str(out))
        assert result.exit_code == 0

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = self.run("all", str(GOLDEN / "d1_half_half.json"),
                          "--format", "json", "--out", str(out))
        assert result.exit_code == 0
        assert json.loads(out.read_text())["pass"]

    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads((GOLDEN / "z2_bessel.json").read_text())
        data["group"]["table"][0][1] = 9
        bad.write_text(json.dumps(data))
        result = self.run("validate", str(bad))
        assert result.exit_code == 2

    def test_verification_failure_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads((GOLDEN / "z2_bessel.json").read_text())
        data["ovm"]["atoms"][0][0][0] = [5.0, 0.0]  # breaks covariance
        bad.write_text(json.dumps(data))
        result = self.run("dilate-banach", str(bad), "--format", "json")
        assert result.exit_code == 1
        payload = json.loads(result.output)
        failed = [c for c in payload["checks"] if not c["pass"]]
        assert any(c["paper_item"] == "valid.system.covariance" for c in failed)

    def test_eps_override_tightens(self):
        # an absurdly tight tolerance turns float noise into failures
        result = self.run("dilate-banach", str(GOLDEN / "z3_regular_bessel.json"),
                          "--eps", "1e-30")
        assert result.exit_code == 1

    def test_tight_eps_fails_hilbert_laws_exit_1(self):
        # eigh rounding on the atoms sits above eps = 1e-16: a failed law
        # with its measured residual, not an input error
        result = self.run("dilate-hilbert", str(GOLDEN / "z2_bessel.json"),
                          "--eps", "1e-16", "--format", "json")
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        [record] = [c for c in payload["checks"]
                    if c["paper_item"] == "hilbert(1)"]
        assert not record["pass"] and record["max_residual"] > 1e-16

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exit_2(self, eps):
        result = self.run("all", str(GOLDEN / "z2_bessel.json"), "--eps", eps)
        assert result.exit_code == 2
        assert "tolerances must be finite and positive" in result.output

    def test_nan_eps_in_scenario_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads((GOLDEN / "z2_bessel.json").read_text())
        data["tolerance"]["eps_residual"] = math.nan
        bad.write_text(json.dumps(data))  # json writes the token NaN
        result = self.run("all", str(bad))
        assert result.exit_code == 2
        assert "tolerances must be finite and positive" in result.output

    def test_missing_payload_command_exit_2(self):
        result = self.run("dilate-framing", str(GOLDEN / "z2_bessel.json"))
        assert result.exit_code == 2

    def _gen_then_all(self, tmp_path, *gen_args):
        out = tmp_path / "gen.json"
        result = self.run("gen", *gen_args, "--seed", "1", "-o", str(out))
        assert result.exit_code == 0, result.output
        return self.run("all", str(out))

    def test_all_past_16_basis_indices(self, tmp_path):
        # 9 atoms and Z = 18: every stage is polynomial, nothing enumerates
        result = self._gen_then_all(tmp_path, "--kind", "p-frame-cyclic",
                                    "--n", "9", "--r", "2", "--p", "2")
        assert result.exit_code == 0, result.output

    def test_all_at_62_atoms(self, tmp_path):
        result = self._gen_then_all(tmp_path, "--kind", "spectral-random",
                                    "--n", "62", "--dim", "6")
        assert result.exit_code == 0, result.output

    def test_63_atoms_exit_2(self, tmp_path):
        result = self.run("gen", "--kind", "bessel-cyclic", "--n", "63",
                          "--seed", "1")
        assert result.exit_code == 2
        assert "atom count must be in 1..62" in result.output
        # sets are int64 masks: a file with 63 atoms is refused the same way
        one = [[[1.0 / 63, 0.0]]]
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps({
            "schema_version": 1, "group": {"order": 1, "table": [[0]]},
            "space": {"dim": 1, "norm": "l2"}, "multiplier": [[[1.0, 0.0]]],
            "action": [list(range(63))], "rep": [[[[1.0, 0.0]]]],
            "ovm": {"atoms": [one] * 63}}))
        result = self.run("all", str(bad))
        assert result.exit_code == 2
        assert "atom count must be in 1..62" in result.output

    @pytest.mark.parametrize("option", [["--cap", "16"], ["--samples", "5"]])
    def test_retired_options_are_usage_errors(self, option):
        result = self.run("all", str(GOLDEN / "z2_bessel.json"), *option)
        assert result.exit_code == 2
        assert "No such option" in result.output and option[0] in result.output

    def test_out_of_memory_exit_2(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setattr(cli, "run_pipeline", exhausted)
        result = self.run("all", str(GOLDEN / "z2_bessel.json"))
        assert result.exit_code == 2
        assert ("input error: out of memory: Unable to allocate 2.00 GiB"
                in result.output)

import json
import math

import pytest

from helpers import SCENARIO_DIR, run_cli

TURION = str(SCENARIO_DIR / "turion6.json")
STEP_DEMO = str(SCENARIO_DIR / "step_demo.json")


def table_rows(stdout):
    rows = {}
    for line in stdout.splitlines()[1:]:
        cells = line.split()
        if len(cells) >= 6 and (cells[0] in ("direct", "stepped") or cells[0].startswith("stepped:")):
            rows[cells[0]] = cells
    return rows


class TestValidate:
    def test_shipped_scenarios_are_valid(self):
        for path in (TURION, STEP_DEMO):
            result = run_cli("validate", "--scenario", path)
            assert result.returncode == 0, result.stderr
            assert "OK" in result.stdout

    def test_invalid_scenario_exits_2_and_lists_violations(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["processor"]["levels"].reverse()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run_cli("validate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "not strictly increasing" in result.stderr

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        result = run_cli("validate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "line" in result.stderr


class TestSimulate:
    def test_writes_report_and_trace(self, tmp_path):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        result = run_cli("simulate", "--scenario", TURION, "--report", str(report), "--trace", str(trace))
        assert result.returncode == 0, result.stderr
        assert "energy_total_j" in result.stdout
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1
        assert doc["transitions"]["count"] == 6
        first_line = trace.read_text().splitlines()[0]
        assert first_line == "time_s,freq_hz,power_w,temp_c,cum_wear"

    def test_missing_scenario_exits_1(self, tmp_path):
        result = run_cli("simulate", "--scenario", str(tmp_path / "absent.json"))
        assert result.returncode == 1

    def test_invalid_scenario_exits_2(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["sim"]["duration_s"] = 1.0  # shorter than the deadlines
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        result = run_cli("simulate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "sim.duration" in result.stderr


class TestNonFiniteInput:
    """NaN, Infinity and out-of-range numbers exit 2, an overflowing wear rate exits 1: one line each."""

    def write_with_cycles(self, tmp_path, literal):
        doc = json.loads(open(TURION).read())
        doc["tasks"][0]["cycles"] = "CYCLES"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc).replace('"CYCLES"', literal))
        return str(path)

    def assert_one_line(self, result, code, text):
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert text in result.stderr

    def test_nan_and_infinity_are_parse_errors(self, tmp_path):
        for literal in ("NaN", "Infinity", "-Infinity"):
            result = run_cli("validate", "--scenario", self.write_with_cycles(tmp_path, literal))
            self.assert_one_line(result, 2, f"invalid scenario (parse): {tmp_path}")
            assert f"non-finite number {literal} is not allowed" in result.stderr

    def test_literals_beyond_the_float_range_are_schema_errors(self, tmp_path):
        for literal in ("1e400", "-1e400", "1" + "0" * 400):
            result = run_cli("validate", "--scenario", self.write_with_cycles(tmp_path, literal))
            self.assert_one_line(result, 2, "invalid scenario (schema): tasks[0].cycles: expected a finite number")

    def test_sweep_reads_documents_the_same_way(self, tmp_path):
        path = self.write_with_cycles(tmp_path, "NaN")
        result = run_cli("sweep", "--scenario", path, "--param", "wear.alpha", "--values", "1,2")
        self.assert_one_line(result, 2, "non-finite number NaN is not allowed")

    def test_overflowing_model_values_exit_1(self, tmp_path):
        hot = json.loads(open(TURION).read())
        hot["thermal"]["r_th_k_per_w"] = 5000.0  # the first task heats toward 65,000 degC ...
        hot["thermal"]["c_th_j_per_k"] = 1e-4  # ... within a millisecond, and 2^6500 overflows
        jolt = json.loads(open(TURION).read())
        jolt["wear"].update(f_span_hz=1.0, alpha=100.0)  # (2e8 Hz / 1 Hz)^100 overflows
        for name, doc in (("hot", hot), ("jolt", jolt)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.assert_one_line(run_cli("simulate", "--scenario", str(path)), 1, "error: ")


class TestTraceCap:
    """A trace of more than 10**6 points is refused: exit 2 in validation, exit 1 for a run that overruns."""

    VERB_ARGS = {
        "validate": (),
        "simulate": (),
        "compare": ("--policies", "direct,stepped"),
        "sweep": ("--param", "wear.alpha", "--values", "1,2"),
    }

    @pytest.mark.parametrize("trace_dt", [1e-7, 1e-320])
    @pytest.mark.parametrize("verb", sorted(VERB_ARGS))
    def test_too_fine_a_trace_is_invalid(self, tmp_path, verb, trace_dt):
        doc = json.loads(open(TURION).read())
        doc["sim"]["trace_dt_s"] = trace_dt
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        result = run_cli(verb, "--scenario", str(path), *self.VERB_ARGS[verb])
        assert result.returncode == 2
        assert result.stderr.strip().splitlines() == [
            "invalid scenario (validation): sim.trace_dt: gives more than 1000000 trace points over sim.duration"
        ]

    def test_a_run_past_the_cap_exits_1(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["tasks"] = [{"id": "big", "cycles": 1.8e16, "arrival_s": 0.0, "deadline_s": 5.0}]
        doc["sim"].update(duration_s=10.0, trace_dt_s=1.0)
        path = tmp_path / "overrun.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", str(path)).returncode == 0
        result = run_cli("simulate", "--scenario", str(path))
        assert result.returncode == 1
        assert len(result.stderr.strip().splitlines()) == 1
        assert "trace points" in result.stderr


class TestCompare:
    def test_full_span_stepping_cuts_shock_wear_to_a_fifth(self):
        result = run_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct,stepped")
        assert result.returncode == 0, result.stderr
        rows = table_rows(result.stdout)
        direct = float(rows["direct"][4])
        stepped = float(rows["stepped"][4])
        assert math.isclose(stepped, direct / 5.0, rel_tol=1e-9)

    def test_comparison_report_file(self, tmp_path):
        out = tmp_path / "cmp.json"
        result = run_cli(
            "compare", "--scenario", TURION, "--policies", "direct,stepped:0.5", "--report", str(out)
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["baseline"] == "direct"
        assert [p["label"] for p in doc["policies"]] == ["direct", "stepped:0.5"]
        assert doc["policies"][1]["newly_missed"]
        assert "newly missed deadlines" in result.stdout

    def test_single_policy_is_a_usage_error(self):
        assert run_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct").returncode == 64

    def test_dwell_on_direct_is_a_usage_error(self):
        result = run_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct:0.5,stepped")
        assert result.returncode == 64


class TestSweep:
    def test_alpha_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", "--scenario", STEP_DEMO, "--param", "wear.alpha", "--values", "1,2", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "value,energy_j,shock_wear,thermal_wear,projected_lifetime_s"
        assert len(lines) == 3

    def test_linear_alpha_equalizes_policies(self, tmp_path):
        # run the same sweep under each transition policy; alpha=1 rows must agree
        stepped_doc = json.loads(open(STEP_DEMO).read())
        stepped_doc["policy"] = {"kind": "stepped"}
        stepped_path = tmp_path / "stepped.json"
        stepped_path.write_text(json.dumps(stepped_doc))

        shocks = {}
        for label, path in (("direct", STEP_DEMO), ("stepped", str(stepped_path))):
            result = run_cli("sweep", "--scenario", path, "--param", "wear.alpha", "--values", "1,2")
            assert result.returncode == 0, result.stderr
            rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
            shocks[label] = {float(r[0]): float(r[2]) for r in rows}
        assert math.isclose(shocks["direct"][1.0], shocks["stepped"][1.0], rel_tol=1e-12)
        assert shocks["stepped"][2.0] < shocks["direct"][2.0]

    def test_unknown_parameter_exits_2(self):
        result = run_cli("sweep", "--scenario", STEP_DEMO, "--param", "wear.bogus", "--values", "1")
        assert result.returncode == 2

    def test_a_section_that_is_not_an_object_exits_2(self, tmp_path):
        doc = json.loads(open(STEP_DEMO).read())
        doc["sim"] = 5
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        result = run_cli("sweep", "--scenario", str(path), "--param", "sim.duration_s", "--values", "60")
        assert result.returncode == 2
        assert result.stderr.strip() == "invalid scenario (schema): sim: expected an object"

    def test_unwritable_out_is_a_one_line_runtime_error(self, tmp_path):
        out = tmp_path / "missing-dir" / "sweep.csv"
        result = run_cli("sweep", "--scenario", STEP_DEMO, "--param", "wear.alpha", "--values", "1", "--out", str(out))
        assert result.returncode == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")


class TestUsage:
    def test_unknown_subcommand_exits_64(self):
        result = run_cli("launch", "--scenario", TURION)
        assert result.returncode == 64
        assert "usage" in result.stderr.lower()

    def test_unknown_flag_exits_64(self):
        result = run_cli("simulate", "--scenario", TURION, "--turbo")
        assert result.returncode == 64

    def test_no_subcommand_exits_64(self):
        assert run_cli().returncode == 64

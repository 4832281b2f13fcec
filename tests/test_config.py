import copy
import json

import pytest

from dvfsim import ScenarioError, load_scenario, parse_scenario

from helpers import SCENARIO_DIR

BASE_DOC = {
    "processor": {
        "levels": [
            {"freq_hz": 800e6, "vdd_v": 0.90},
            {"freq_hz": 1000e6, "vdd_v": 0.96},
            {"freq_hz": 1200e6, "vdd_v": 1.02},
        ],
        "coeff_a": 4.0e-9,
        "coeff_b": 0.5,
        "p_device_w": 2.0,
        "p_idle_w": 0.8,
    },
    "thermal": {
        "r_th_k_per_w": 2.0,
        "c_th_j_per_k": 2.5,
        "t_amb_c": 25.0,
        "t_ref_c": 45.0,
        "l_base_hours": 10000.0,
    },
    "wear": {"k_shock": 1e-4, "alpha": 2.0},
    "tasks": [{"id": "t1", "cycles": 1.2e9, "arrival_s": 0.0, "deadline_s": 5.0}],
    "governor": {"kind": "lowest_feasible"},
    "policy": {"kind": "direct"},
    "sim": {"duration_s": 60.0, "trace_dt_s": 0.5, "cost_rate_usd_per_mwh": 100.0},
}


def doc(**overrides):
    d = copy.deepcopy(BASE_DOC)
    for path, value in overrides.items():
        section, _, key = path.partition("__")
        if key:
            d[section][key] = value
        else:
            d[section] = value
    return d


class TestShippedScenarios:
    def test_turion6_loads_with_six_levels(self):
        sc = load_scenario(SCENARIO_DIR / "turion6.json")
        assert len(sc.spec.levels) == 6
        assert sc.spec.levels[0].freq == 800e6
        assert sc.spec.levels[-1].freq == 1800e6
        assert len(sc.tasks) == 4

    def test_step_demo_loads(self):
        sc = load_scenario(SCENARIO_DIR / "step_demo.json")
        assert len(sc.tasks) == 1

    def test_hours_convert_to_seconds(self):
        sc = load_scenario(SCENARIO_DIR / "turion6.json")
        assert sc.spec.thermal.l_base == 10000.0 * 3600.0

    def test_span_defaults_to_full_ladder(self):
        sc = load_scenario(SCENARIO_DIR / "turion6.json")
        assert sc.spec.wear.f_span == 1.0e9


class TestSchemaStrictness:
    def test_missing_tasks_section_is_named(self):
        d = doc()
        del d["tasks"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(d)
        assert err.value.kind == "schema"
        assert any("'tasks'" in p for p in err.value.problems)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc(extras={"x": 1}))
        assert err.value.kind == "schema"
        assert any("unknown key 'extras'" in p for p in err.value.problems)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc(policy={"kind": "direct", "speed": 3}))
        assert any("policy: unknown key 'speed'" in p for p in err.value.problems)

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc(processor__coeff_a=True))
        assert any("coeff_a: expected a number" in p for p in err.value.problems)

    def test_fixed_index_must_be_integer(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc(governor={"kind": "fixed", "fixed_index": 1.5}))
        assert any("expected an integer" in p for p in err.value.problems)

    def test_all_schema_problems_reported_at_once(self):
        d = doc(extras={})
        del d["thermal"]["r_th_k_per_w"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(d)
        assert len(err.value.problems) >= 2
        # the missing r_th would also fail validation as 0.0, but schema problems are raised first
        assert err.value.kind == "schema"
        assert all(": missing key '" in p or ": unknown key '" in p for p in err.value.problems)


class TestValidation:
    def test_levels_out_of_order(self):
        bad = doc()
        bad["processor"]["levels"][0], bad["processor"]["levels"][2] = (
            bad["processor"]["levels"][2],
            bad["processor"]["levels"][0],
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert err.value.kind == "validation"
        assert any("not strictly increasing" in p for p in err.value.problems)

    def test_duplicate_task_ids(self):
        bad = doc(tasks=[
            {"id": "t", "cycles": 1e9, "arrival_s": 0.0, "deadline_s": 5.0},
            {"id": "t", "cycles": 1e9, "arrival_s": 1.0, "deadline_s": 6.0},
        ])
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any("duplicate task id" in p for p in err.value.problems)

    def test_unsorted_tasks_are_sorted_stably(self):
        sc = parse_scenario(doc(
            tasks=[
                {"id": "late", "cycles": 1e9, "arrival_s": 5.0, "deadline_s": 10.0},
                {"id": "early", "cycles": 1e9, "arrival_s": 0.0, "deadline_s": 5.0},
                {"id": "tied", "cycles": 1e9, "arrival_s": 5.0, "deadline_s": 12.0},
            ],
            sim={"duration_s": 60.0, "trace_dt_s": 0.5, "cost_rate_usd_per_mwh": 100.0},
        ))
        assert [t.id for t in sc.tasks] == ["early", "late", "tied"]

    def test_dwell_stalls_flag_parses(self):
        sc = parse_scenario(doc(sim={
            "duration_s": 60.0, "trace_dt_s": 0.5, "cost_rate_usd_per_mwh": 100.0, "dwell_stalls": True,
        }))
        assert sc.dwell_stalls


class TestParseErrors:
    def test_broken_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"processor": [,]}')
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.kind == "parse"
        assert "line 1" in err.value.problems[0]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.json")

    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc()))
        sc = load_scenario(path)
        assert sc.duration == 60.0

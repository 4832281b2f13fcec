import copy
import json
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dvfsim import ScenarioError, Task, config, load_scenario, parse_scenario

from helpers import SCENARIO_DIR

README_SCENARIO_FILES = (
    (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8").split("## Scenario files", 1)[1].split("\n## ", 1)[0]
)

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


def readme_example() -> dict:
    """The example document of README's "Scenario files" section, its comments and ``...`` removed."""
    block = README_SCENARIO_FILES.split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//[^\n]*", "", block).replace(", ...", ""))


# The keys README names in prose, not in its example, with the kind its text gives each.
README_OPTIONAL = {
    ("wear", "f_span_hz"): "number",
    ("governor", "fixed_index"): "integer",
    ("policy", "dwell_s"): "number",
    ("sim", "dwell_stalls"): "boolean",
}
KIND_OF = {float: "number", str: "string", list: "array", dict: "section"}
# Values of the wrong kind for each kind, and the problem each gives.
WRONG = {
    "number": [(True, "expected a number"), ("1.0", "expected a number"), (float("inf"), "expected a finite number"),
               (10**400, "expected a finite number")],
    "integer": [(1.5, "expected an integer"), (True, "expected an integer")],
    "string": [(3.0, "expected a string")],
    "boolean": [(1, "expected a boolean")],
    "array": [({}, "expected an array")],
    "section": [([], "expected an object")],
}


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def readme_keys():
    """(container path, where, key, kind, required) for every key README documents.

    The container path leads from the document to the object that holds the key:
    the document, a section, the first ladder level or the first task.
    """
    example = readme_example()
    for section, body in example.items():
        yield (), "scenario", section, KIND_OF[type(body)], True
        objects = [((section,), section)] if isinstance(body, dict) else [((section, 0), f"{section}[0]")]
        if section == "processor":
            objects.append((("processor", "levels", 0), "processor.levels[0]"))
        for path, where in objects:
            for key, value in at(example, path).items():
                yield path, where, key, KIND_OF[type(value)], True
    for (section, key), kind in README_OPTIONAL.items():
        yield (section,), section, key, kind, False


def key_cases(required_only=False):
    return [
        pytest.param(*case, id=f"{case[1]}.{case[2]}")
        for case in readme_keys()
        if case[4] or not required_only
    ]


def schema_problems(doc) -> tuple[str, ...]:
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.kind == "schema"
    return err.value.problems


def broken_in_five_sections(doc):
    """Problems in the top level, processor and a ladder level, wear, tasks and sim."""
    doc["extras"] = 1
    doc["processor"].update(coeff_a=True, zz=0)
    doc["processor"]["levels"][0]["freq_hz"] = "fast"
    doc["processor"]["levels"].append({"freq_hz": 1e9})
    doc["wear"]["f_span_hz"] = True
    del doc["wear"]["alpha"]
    doc["tasks"][0]["cycles"] = float("inf")
    doc["tasks"].append(7)
    doc["sim"].update(dwell_stalls=1, aa=0)


def tasks_not_an_array(doc):
    doc["tasks"] = {}
    del doc["governor"]
    doc["processor"]["p_idle_w"] = "low"


class TestSchemaKeys:
    """Every key README documents, deleted, of the wrong kind, or beside an unknown key: one problem each."""

    def test_the_readme_example_has_no_schema_problem(self):
        with pytest.raises(ScenarioError) as err:  # one ladder level is too few, which only validation sees
            parse_scenario(readme_example())
        assert err.value.kind == "validation"
        for section, key in README_OPTIONAL:
            assert re.search(rf"\b{key}\b", README_SCENARIO_FILES), key

    def test_the_schema_table_declares_exactly_the_readme_keys(self):
        table_of = {"processor.levels[0]": "level", "tasks[0]": "task"}
        documented = {(table_of.get(w, w), k, kind, r) for _, w, k, kind, r in readme_keys()}
        declared = {(name, k, kind, r) for name, keys in config._TABLE.items() for k, (kind, r) in keys.items()}
        assert documented == declared

    @pytest.mark.parametrize("path, where, key, kind, required", key_cases(required_only=True))
    def test_a_deleted_required_key_is_one_missing_key(self, path, where, key, kind, required):
        doc = readme_example()
        del at(doc, path)[key]
        problems = schema_problems(doc)
        assert problems == (f"{where}: missing key '{key}'",)  # a deleted section's own keys are not read

    @pytest.mark.parametrize("path, where, key, kind, required", key_cases())
    def test_a_value_of_the_wrong_kind_is_one_problem(self, path, where, key, kind, required):
        for value, message in WRONG[kind]:
            doc = readme_example()
            at(doc, path)[key] = value
            name = key if kind == "section" else f"{where}.{key}"  # a section is named on its own
            assert schema_problems(doc) == (f"{name}: {message}",)

    @pytest.mark.parametrize(
        "path, where", [pytest.param(p, w, id=w) for p, w in sorted({(p, w) for p, w, *_ in readme_keys()})]
    )
    def test_an_unknown_key_is_one_problem(self, path, where):
        doc = readme_example()
        at(doc, path)["bogus"] = 1.0
        assert schema_problems(doc) == (f"{where}: unknown key 'bogus'",)

    def test_an_entry_that_is_not_an_object_is_one_problem(self):
        for path, where in ((("processor", "levels"), "processor.levels[1]"), (("tasks",), "tasks[1]")):
            doc = readme_example()
            at(doc, path).append("x")
            assert schema_problems(doc) == (f"{where}: expected an object",)

    @pytest.mark.parametrize("doc", [[], [{}], 1, "scenario", None, True], ids=repr)
    def test_a_document_that_is_not_an_object_is_one_problem(self, doc):
        assert schema_problems(doc) == ("scenario: expected an object",)

    def test_deleted_sections_give_one_line_each_and_the_rest_is_still_read(self):
        doc = readme_example()
        del doc["processor"], doc["sim"]
        doc["wear"]["alpha"] = "steep"
        assert schema_problems(doc) == (
            "scenario: missing key 'processor'",
            "scenario: missing key 'sim'",
            "wear.alpha: expected a number",
        )

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (
                broken_in_five_sections,
                [
                    "scenario: unknown key 'extras'",
                    "processor: unknown key 'zz'",
                    "processor.coeff_a: expected a number",
                    "processor.levels[0].freq_hz: expected a number",
                    "processor.levels[1]: missing key 'vdd_v'",
                    "wear: missing key 'alpha'",
                    "wear.f_span_hz: expected a number",
                    "tasks[0].cycles: expected a finite number",
                    "tasks[1]: expected an object",
                    "sim: unknown key 'aa'",
                    "sim.dwell_stalls: expected a boolean",
                ],
            ),
            (
                tasks_not_an_array,
                [
                    "scenario: missing key 'governor'",
                    "scenario.tasks: expected an array",
                    "processor.p_idle_w: expected a number",
                ],
            ),
        ],
        ids=lambda case: getattr(case, "__name__", ""),
    )
    def test_problems_come_in_file_section_order(self, edit, expected):
        doc = readme_example()
        edit(doc)
        assert list(schema_problems(doc)) == expected

TASK_KEYS = ("id", "cycles", "arrival_s", "deadline_s")
# numbers _read takes as they are: ints and floats within the float range
PLAIN_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([int(sys.float_info.max), -int(sys.float_info.max)]),
)
ANY_VALUES = st.one_of(
    PLAIN_NUMBERS,
    st.floats(),
    st.booleans(),
    st.sampled_from([10**400, -(10**400), int(sys.float_info.max) + 1, None]),
    st.text(max_size=3),
)


@st.composite
def task_entries(draw):
    """A task entry that is right, has one value of any kind, lacks or adds keys, or is not an object."""
    shape = draw(st.sampled_from(("right", "any value", "keys", "not an object")))
    if shape == "not an object":
        return draw(st.one_of(st.lists(PLAIN_NUMBERS, max_size=2), ANY_VALUES))
    entry = {"id": draw(st.text(max_size=4))} | {key: draw(PLAIN_NUMBERS) for key in TASK_KEYS[1:]}
    if shape == "any value":
        entry[draw(st.sampled_from(TASK_KEYS))] = draw(ANY_VALUES)
    elif shape == "keys":
        for key in draw(st.sets(st.sampled_from(TASK_KEYS), max_size=2)):
            del entry[key]
        if draw(st.booleans()):
            entry["priority"] = draw(ANY_VALUES)
    return entry


def _tasks_only(spec, tasks, *rest):
    """Stands in for Scenario, so the parsed tasks come back without the scenario's validation."""
    return tasks


class TestTaskFastPath:
    """parse_scenario builds a well-formed task entry without _read; every entry must come out as _read has it."""

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(task_entries(), min_size=1, max_size=6), earlier_problem=st.booleans())
    def test_tasks_and_problems_are_those_read_gives(self, entries, earlier_problem):
        d = doc(tasks=entries)
        if earlier_problem:  # wear is read before the tasks
            d["wear"]["alpha"] = True
        problems, want = [], []
        config._read(d["wear"], "wear", config._TABLE["wear"], problems)
        for i, entry in enumerate(entries):
            values = config._read(entry, f"tasks[{i}]", config._TABLE["task"], problems)
            if not problems:
                want.append(Task(values["id"], values["cycles"], values["arrival_s"], values["deadline_s"]))
        with mock.patch.object(config, "Scenario", _tasks_only):
            if problems:
                assert schema_problems(d) == tuple(problems)
                return
            got = parse_scenario(d)
        assert repr(got) == repr(tuple(sorted(want, key=lambda t: t.arrival)))  # repr tells -0.0 from 0.0
        assert all(type(value) is float for task in got for value in task[1:])


class TestValidation:
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

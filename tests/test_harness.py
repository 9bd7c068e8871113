"""Generators, canonical JSON, and the end-to-end pipeline."""

from fractions import Fraction

import pytest

from dstlift.exact import exact_opt
from dstlift.flow_lp import build_flow_lp, solve_lp
from dstlift import harness
from dstlift.harness import (
    GenerationError,
    PipelineConfig,
    PipelineError,
    canonical_json,
    gap_instance,
    gen_random_layered,
    gen_set_cover,
    ratio_table,
    run_experiment,
    run_pipeline,
    set_cover_instance,
)
from dstlift.instance import as_layered
from dstlift.lasserre import SolverConfig

from conftest import tiny_chain


def test_set_cover_instance_structure():
    inst = set_cover_instance([2, 3], [{0, 1}, {1}])
    assert inst.root == "r"
    assert inst.terminals == ("e0", "e1")
    costs = dict(inst.edges)
    assert costs[("r", "S0")] == 2 and costs[("r", "S1")] == 3
    assert costs[("S0", "e0")] == 0 and costs[("S1", "e1")] == 0
    assert exact_opt(inst).cost == 2  # S0 covers everything


def test_set_cover_instance_errors():
    with pytest.raises(GenerationError):
        set_cover_instance([1], [{0}, {1}])
    with pytest.raises(GenerationError):
        set_cover_instance([1, 1], [{0}, {2}])  # element 1 never covered
    with pytest.raises(GenerationError):
        set_cover_instance([], [])


def test_gen_set_cover_deterministic_and_covering():
    a = gen_set_cover(4, 5, seed=3)
    b = gen_set_cover(4, 5, seed=3)
    c = gen_set_cover(4, 5, seed=4)
    assert a == b
    assert a != c
    assert len(a.terminals) == 5
    for cost in dict(a.edges).values():
        assert 0 <= cost <= 9
    with pytest.raises(GenerationError):
        gen_set_cover(0, 1)


def test_gap_instance_shape_and_values():
    inst = gap_instance(3)
    # three 2-subsets of three elements, unit costs
    assert len(inst.terminals) == 3
    paid = [(e, c) for e, c in inst.edges if e[0] == "r"]
    free = [(e, c) for e, c in inst.edges if e[0] != "r"]
    assert len(paid) == 3 and all(c == 1 for _, c in paid)
    assert len(free) == 6 and all(c == 0 for _, c in free)
    assert exact_opt(inst).cost == 2
    cs, _ = build_flow_lp(as_layered(inst))
    lp = solve_lp(cs)
    # fractional cover puts 1/2 on every set: value 3/2, strictly below 2
    assert lp.status == "optimal" and lp.objective == Fraction(3, 2)
    with pytest.raises(GenerationError):
        gap_instance(2)


def test_gen_random_layered_deterministic_and_layered():
    a = gen_random_layered(3, [2, 3, 2], seed=5)
    b = gen_random_layered(3, [2, 3, 2], seed=5)
    assert a == b
    layered = as_layered(a)
    assert layered.ell == 3
    sizes = [len(layer) for layer in layered.levels]
    assert sizes == [1, 2, 3, 2]
    assert len(a.terminals) == 2
    with pytest.raises(GenerationError):
        gen_random_layered(2, [2])
    with pytest.raises(GenerationError):
        gen_random_layered(1, [0])


def test_canonical_json_rationals_and_order():
    payload = {"b": Fraction(3, 4), "a": Fraction(-3, 4), "c": Fraction(7)}
    text = canonical_json(payload)
    assert text == '{\n  "a": "-3/4",\n  "b": "3/4",\n  "c": "7"\n}\n'
    reordered = {"c": Fraction(7), "a": Fraction(-3, 4), "b": Fraction(3, 4)}
    assert canonical_json(reordered) == text


def test_canonical_json_containers():
    payload = {
        ("x", "y"): frozenset({3, 1, 2}),
        "nested": ({"k": Fraction(1, 2)},),
    }
    text = canonical_json(payload)
    assert '"x/y"' in text
    assert "[\n    1,\n    2,\n    3\n  ]" in text
    assert canonical_json(payload) == text


def _fast_config(**kwargs):
    return PipelineConfig(solver=SolverConfig(max_iter=6000), **kwargs)


def test_run_pipeline_chain_end_to_end():
    row = run_pipeline(tiny_chain(), None, 2, name="chain", config=_fast_config())
    assert row["name"] == "chain"
    assert row["ell"] == 2 and row["level"] == 2
    assert row["lp_value"] == 5
    assert abs(row["sdp_value"] - 5.0) <= 1e-4
    assert row["certify_ok"]
    assert row["opt_layered"] == 5 and row["opt_base"] == 5
    assert row["lp_over_opt"] == 1.0
    rounds = row["rounding"]["runs"]
    assert [r["seed"] for r in rounds] == [0, 1, 2]
    for r in rounds:
        assert r["cost"] == 5  # chain: any feasible solution is the whole chain
        assert r["base_cost"] == 5
    assert row["rounding"]["rounded_over_opt"] == 1.0


def test_run_pipeline_levelizes_when_asked():
    row = run_pipeline(
        tiny_chain(), 1, 1, name="flat", config=_fast_config(do_round=False)
    )
    assert row["ell"] == 1
    # single-level collapse keeps the shortest-route cost
    assert row["lp_value"] == 5 and row["opt_layered"] == 5


def test_run_pipeline_round_precondition():
    with pytest.raises(PipelineError) as err:
        run_pipeline(tiny_chain(), None, 1, config=_fast_config())
    assert err.value.stage == "precondition"


def test_run_pipeline_stage_attribution():
    with pytest.raises(PipelineError) as err:
        run_pipeline(
            tiny_chain(), None, 2, config=_fast_config(do_round=False, budget=2)
        )
    assert err.value.stage == "lift"
    with pytest.raises(PipelineError) as err:
        run_pipeline(tiny_chain(), 0, 0, config=_fast_config(do_round=False))
    assert err.value.stage == "layering"


def test_run_experiment_gap_suite():
    # the full gap3 level-1 solve takes about 80 s on two cores (550
    # iterations, to 2.000003, closing the 3/2 fractional gap), which belongs
    # to the experiment CLI; here a capped run checks the exact LP and OPT facts
    capped = PipelineConfig(solver=SolverConfig(max_iter=40))
    report = run_experiment("gap", capped)
    assert report["suite"] == "gap"
    (row,) = report["rows"]
    assert row["name"] == "gap3"
    assert row["lp_value"] == Fraction(3, 2)
    assert row["opt_layered"] == 2
    assert "rounding" not in row
    assert report["summary"]["instances"] == 1
    assert report["summary"]["min_lp_over_opt"] == 0.75


def test_run_experiment_suite_table(monkeypatch):
    """Each suite runs its rows in order; only smoke rows round, and never
    when the config turns rounding off."""
    calls = []

    def stub(inst, ell, level, name="instance", config=None):
        calls.append((name, len(inst.edges), ell, level, config.do_round))
        return {"name": name, "lp_over_opt": None}

    monkeypatch.setattr(harness, "run_pipeline", stub)
    smoke = [("chain", 2, None, 2, True), ("diamond", 4, None, 2, True)]
    gap = [("gap3", 9, None, 1, False)]
    extra = [("layered-2x2", 4, None, 1, False), ("cover-3x2", 6, None, 1, False)]
    expected = {"smoke": smoke, "gap": gap, "full": smoke + gap + extra}
    no_round = PipelineConfig(do_round=False)
    for config, rounds in ((PipelineConfig(), True), (no_round, False)):
        for suite, rows in expected.items():
            calls.clear()
            report = run_experiment(suite, config)
            assert calls == [r[:4] + (r[4] and rounds,) for r in rows]
            assert [r["name"] for r in report["rows"]] == [r[0] for r in rows]
            assert report["summary"]["instances"] == len(rows)


def test_run_experiment_unknown_suite():
    with pytest.raises(ValueError):
        run_experiment("bogus")


def test_ratio_table_format():
    report = {
        "rows": [
            {
                "name": "x",
                "lp_over_opt": 0.75,
                "sdp_over_opt": 0.8,
                "rounding": {"rounded_over_opt": 1.0},
            },
            {"name": "y", "lp_over_opt": None, "sdp_over_opt": None},
        ]
    }
    text = ratio_table(report)
    lines = text.splitlines()
    assert lines[0].startswith("# name")
    assert lines[1] == "x 0.750000 0.800000 1.000000"
    assert lines[2] == "y nan nan nan"

"""Tests of the benchmark's checker, tracer and pass loop.

Run from the repository root with gpmkit importable:

    PYTHONPATH=src python -m pytest -q gpmbench
"""

import importlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
import tracer
import workloads
from workloads import Instance

EXPECTED = workloads.load_expected()
SMALL = (Instance("camel", 3), Instance("rational", 1), Instance("quadratic3", 1))
CAMEL = {
    "status": 1,
    "objective": -1.031628,
    "atoms": [[-0.0898, 0.7127], [0.0898, -0.7127]],
}
OFFSET_NOTE = (
    "note: objective offset 9.0 is not representable in sdpa; "
    "add it to the solved objective\n"
)


def test_expected_covers_every_instance():
    keys = {inst.key for insts in workloads.WORKLOADS.values() for inst in insts}
    assert keys <= set(EXPECTED)


def test_checker_accepts_the_paper_outcome():
    assert workloads.check_solve(EXPECTED["camel-3"], CAMEL) == []
    assert workloads.certified_as_paper(EXPECTED["camel-3"], CAMEL)


def test_checker_flags_perturbed_objective():
    outcome = dict(CAMEL, objective=-1.0316 * (1 + 2e-3))
    problems = workloads.check_solve(EXPECTED["camel-3"], outcome)
    assert len(problems) == 1 and problems[0].startswith("objective")


def test_missing_atom_or_lost_certificate_is_no_paper_certificate():
    missing = dict(CAMEL, atoms=CAMEL["atoms"][:1])
    uncertified = dict(CAMEL, status=0, atoms=None)
    for outcome in (missing, uncertified):
        assert workloads.check_solve(EXPECTED["camel-3"], outcome) == []
        assert not workloads.certified_as_paper(EXPECTED["camel-3"], outcome)
    assert not workloads.certified_as_paper(EXPECTED["quadratic3-1"], dict(CAMEL))


def test_checker_flags_failed_solve():
    failed = {"status": -1, "objective": None, "atoms": None}
    assert workloads.check_solve(EXPECTED["quadratic3-1"], failed)


def test_checker_flags_wrong_m_blocks_and_missing_note():
    exp = EXPECTED["maxcut_nosub-4"]
    good = SimpleNamespace(m=510, cone=SimpleNamespace(s=(715,)))
    assert workloads.check_export(exp, good, OFFSET_NOTE) == []
    wrong_m = SimpleNamespace(m=511, cone=SimpleNamespace(s=(715,)))
    assert workloads.check_export(exp, wrong_m, OFFSET_NOTE) == ["m = 511, expected 510"]
    wrong_blocks = SimpleNamespace(m=510, cone=SimpleNamespace(s=(220,)))
    assert len(workloads.check_export(exp, wrong_blocks, OFFSET_NOTE)) == 1
    assert len(workloads.check_export(exp, good, "")) == 1


def test_max_cut_encodings_agree_and_reach_the_brute_force_cut():
    assert workloads.max_cut_value() == 12
    # a fresh process with BLAS pinned as in the benchmark: several times faster here
    code = (
        "import json, run, workloads\n"
        "print(json.dumps({m: workloads.run_instance(workloads.Instance(m, 2), run.ROOT,"
        " None, 0)['objective'] for m in ('maxcut_sub', 'maxcut_nosub')}))"
    )
    env = dict(os.environ, **dict.fromkeys(run.THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(run.ROOT, "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    objective = json.loads(proc.stdout)
    assert objective["maxcut_nosub"] == pytest.approx(objective["maxcut_sub"], rel=1e-4)
    exp = EXPECTED["maxcut_nosub-2"]
    assert workloads.check_solve(exp, {"status": 0, "objective": objective["maxcut_nosub"]}) == []
    assert workloads.check_solve(exp, {"status": 0, "objective": 11.9}) != []


def _wrapped_attributes():
    return {
        (modname, attr): getattr(importlib.import_module(modname), attr)
        for modname, attr, _, _ in tracer.WRAPPED
    }


def test_tracer_restores_every_attribute_after_an_error():
    before = _wrapped_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            during = _wrapped_attributes()
            assert all(during[key] is not fn for key, fn in before.items())
            raise RuntimeError("inside the traced block")
    after = _wrapped_attributes()
    assert all(after[key] is fn for key, fn in before.items())


def test_self_times_account_for_the_traced_pass(tmp_path):
    runner = run.Runner(SMALL, seed=1, outdir=str(tmp_path))
    (result,), (metrics,), spans = run.run_traced(runner, seconds=0.0)
    selfs = [metrics[f"{layer}.self_s"] for layer in tracer.LAYERS]
    assert min(selfs) >= 0.0 and metrics["trace.unattributed_s"] >= 0.0
    assert sum(selfs) + metrics["trace.unattributed_s"] == pytest.approx(result.wall, rel=1e-9)
    assert sum(result.times.values()) <= result.wall
    assert metrics["certify.certified"] == 2 and runner.failed == 0
    assert {span.instance.split("/", 1)[1] for span in spans} == {i.key for i in SMALL}
    top_solves = [
        span for span in spans
        if span.name == "conic.solve_conic" and spans[span.parent].name == "certify.solve_gpm"
    ]
    # one solve per instance; the rest re-center, and solve_conic calling
    # itself after facial reduction is no extra solve
    assert metrics["certify.extra_solves"] == len(top_solves) - len(SMALL)
    assert metrics["certify.extra_solves"] >= 1


def test_export_spans_nest_under_cmd_export(tmp_path):
    inst = Instance("camel", 3, "json")
    with tracer.Tracer() as trace:
        trace.instance = "0/" + inst.key
        outcome = workloads.run_instance(inst, run.ROOT, str(tmp_path), seed=0)
    metrics = tracer.pass_metrics(trace.spans, 0, trace.spans[0].duration)
    root, *inner = trace.spans
    assert root.name == "cli.cmd_export" and root.parent is None
    assert {span.name for span in inner} >= {"dsl.parse_source", "relaxation.assemble",
                                             "conic.to_conic", "formats.export_json"}
    assert all(span.parent == 0 for span in inner)
    assert metrics["formats.bytes_written"] == os.path.getsize(outcome["path"])
    assert metrics["cli.cmd_export_s.camel-3"] == root.duration


def test_seeds_change_the_order_not_the_outcomes(tmp_path):
    results = [run.Runner(SMALL, seed, str(tmp_path)).run_pass(0) for seed in (1, 4)]
    first, second = results
    assert [i.key for i in first.order] != [i.key for i in second.order]
    outcomes = [dict(zip((i.key for i in r.order), r.outcomes)) for r in results]
    for key, one in outcomes[0].items():
        other = outcomes[1][key]
        assert one["status"] == other["status"]
        assert one["objective"] == pytest.approx(other["objective"], rel=1e-6)
        if one["atoms"] is not None:
            assert workloads.atoms_match(one["atoms"], other["atoms"])
    assert first.certified == second.certified == 2

"""The benchmark's own test: seeded inputs and the metric contract.

    python3 -m pytest perfbench

The end-to-end checks run ``certified_numbers``, the shortest workload, in
both modes; the metric table is the same code for every workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GENERATORS = (inputs.mc_inputs, inputs.polynomial_inputs, inputs.number_inputs)


@pytest.mark.parametrize("make", GENERATORS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_graphs_match_their_class():
    docs = inputs.polynomial_inputs(3)
    assert len(docs) == sum(c[-1] for c in inputs.GRAPH_CLASSES)
    seen = {}
    for doc in docs:
        edges = doc["edges"]
        loops = sum(e["ends"][0] == e["ends"][1] for e in edges)
        key = (len(doc["vertices"]), len(edges), loops)
        seen[key] = seen.get(key, 0) + 1
        trees = dict(((v, e, l), t) for v, e, l, t, _ in inputs.GRAPH_CLASSES)[key]
        assert abs(inputs.kirchhoff(doc) - trees) <= trees / 5
        assert [e["id"] for e in edges] == list(range(1, len(edges) + 1))
        for i in range(4):
            assert sum(inputs.Fraction(leg["momentum"][i]) for leg in doc["legs"]) == 0
    assert seen == {(v, e, l): n for v, e, l, _, n in inputs.GRAPH_CLASSES}


def test_outcomes_count_each_op_of_the_list_once():
    tally, rec = workloads.Tally(), Recorder(traced=False)
    for _ in range(3):
        tally.new_pass()
        with tally.op(rec, "ok"):
            pass
        with tally.op(rec, "refused"):
            tally.problem("refused", wrong=False)
    with tally.op(rec, "after the passes"):
        tally.problem("contradicted")
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)
    assert len(tally.op_seconds) == 7
    assert [kind for kind, _, _ in tally.reasons] == ["refused", "after the passes"]


def test_reference_table_covers_the_catalogue_and_matches_mpmath():
    table = references.load_table()
    wanted = set(inputs.depth2_indices()) | set(inputs.depth3_indices())
    wanted |= {idx for idx, _ in inputs.WITH_ONE_REQUESTS}
    assert wanted <= set(table)
    mpmath = references.mpmath
    with mpmath.workdps(references.DIGITS):
        frozen = mpmath.mpf(references.ZETA35_FROZEN)
        assert abs(table[(3, 5)] - frozen) < references.ZETA35_FROZEN_ERROR
        assert abs(table[(1, 2)] - mpmath.zeta(3)) < references.TABLE_ERROR
        for idx in ((2, 7), (1, 3)):
            assert abs(table[idx] - references.mzv_mpmath(idx)) < references.TABLE_ERROR


def test_layers_file_covers_every_per_layer_metric():
    moves = json.loads((HERE / "layers.json").read_text())["moves"]
    workloads = {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["per_layer"]:
        prefixes = [p for p in moves if metric["name"].startswith(p)]
        assert prefixes, metric["name"]
    for group in moves.values():
        for table in group.values():
            for workload, names in table.items():
                assert workload in workloads and set(names) <= e2e


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certified_numbers", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    out = _run(ROOT, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in
                   table.splitlines()), name


def test_exits_nonzero_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = _run(bare, 0)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""

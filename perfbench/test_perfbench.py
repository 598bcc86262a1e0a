"""The benchmark's own checks, at a small scale.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
from pathlib import Path

import pytest

from perfbench.layers import _clipped_union
from perfbench.run import (END_TO_END, accounting_errors, end_to_end, per_layer,
                           per_layer_names, percentile, run_round, tail_mean)
from perfbench.workloads import WORKLOADS, SearchFanout, TieredMixed

SCALE = 0.15
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_sim_numbers(name):
    first = run_round(WORKLOADS[name], 3, scale=SCALE)
    second = run_round(WORKLOADS[name], 3, scale=SCALE)
    assert first.update_sim and first.search_sim
    assert first.sim_signature() == second.sim_signature()
    assert first.failures == second.failures


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_answers_agree_with_the_oracle(name):
    rnd = run_round(WORKLOADS[name], 4, scale=SCALE)
    assert rnd.failed == 0, rnd.failures[:5]


# A client that did not index a file places its rewrite in a partition of
# its own when its update queue flushes before the process's ACG flush
# has taught it the file's home, and the old entry stays (see "Findings"
# in DESIGN.md).  The benchmark's workloads rewrite each file from the
# machine that indexed it; these variants let either machine rewrite any
# file and show the defect until the program is fixed.
@pytest.mark.xfail(strict=True,
                   reason="rewrites through a second client leave stale entries")
@pytest.mark.parametrize("workload", [SearchFanout(shared_rewrites=True),
                                      TieredMixed(shared_rewrites=True)],
                         ids=lambda w: w.name)
def test_rewrites_from_a_second_machine_leave_no_stale_entry(workload):
    rnd = run_round(workload, 4, scale=SCALE)
    assert rnd.failed == 0, rnd.failures[:5]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_changes_the_inputs(name):
    workload = WORKLOADS[name]
    assert workload.build(1, scale=SCALE).ops != workload.build(2, scale=SCALE).ops


def test_traced_round_charges_no_virtual_time_and_accounts_for_it():
    workload = WORKLOADS["tiered-mixed"]
    plain = run_round(workload, 5, scale=SCALE)
    traced = run_round(workload, 5, traced=True, scale=SCALE)
    assert plain.sim_signature() == traced.sim_signature()
    assert accounting_errors(traced) == []
    for layer in ("fs", "cluster.client", "query", "cluster.segments",
                  "sim.objectstore", "indexstructures.serialization"):
        assert traced.tracer.calls[layer] > 0, layer
    # The wrappers are gone again: a later plain round is unchanged.
    assert run_round(workload, 5, scale=SCALE).sim_signature() == plain.sim_signature()
    # Both reports name exactly the metrics BENCHMARK.json lists.
    assert list(per_layer(traced, plain)) == [n for n, _ in per_layer_names()]
    assert list(end_to_end([plain, plain, traced])[0]) == [n for n, _ in END_TO_END]


def test_accounting_check_fails_when_a_boundary_is_not_wrapped():
    # The VFS charges its open syscall itself; without the fs wrappers
    # that virtual time passes inside ops but outside every span.
    traced = run_round(WORKLOADS["build-ingest"], 5, traced=True, scale=SCALE,
                       skip=("fs",))
    errors = accounting_errors(traced)
    assert errors and errors[0].startswith("sim: spans cover"), errors


def test_percentile_and_tail_mean():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == (50, 100)
    # The slowest 1% of 100 is one sample; the tail keeps at least ten.
    assert tail_mean(values, 0.99) == (95.5, 10, 100)
    assert tail_mean(list(range(1, 4001)), 0.99) == (3980.5, 40, 4000)


def test_clipped_union_of_overlapping_legs():
    # Two parallel legs from t=0 (3 s and 5 s) inside a 5 s parent.
    assert _clipped_union([(0.0, 3.0), (0.0, 5.0)], 0.0, 5.0) == (5.0, 8.0)
    # A race loser running past the parent's end is clipped.
    assert _clipped_union([(0.0, 2.0), (1.0, 9.0)], 0.0, 4.0) == (4.0, 10.0)


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()

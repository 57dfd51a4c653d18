"""Tests of the benchmark's tracer and pass runner (not part of Tier-1).

    python3 -m pytest bench/test_bench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from gasketlab import cli, ids, operators, spectra  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Call, Workload  # noqa: E402


def _no_check(prefix):
    return 1, []


SMALL = Workload(
    "small",
    (Call(("ids", "--level", "4", "--dist", "bernoulli:0,10,0.5",
           "--trials", "3", "--threads", "2", "--grid-kind", "global",
           "--grid-n", "9", "--dense-threshold", "10"), "ids", 0, _no_check),
     Call(("verify", "--suite", "branch"), "branch.json", 0, _no_check),
     Call(("lattice", "--level", "3"), "tri3", 0, _no_check)),
    "call", "calls_per_s", True)


def test_traced_pass_writes_identical_files_and_unwinds(tmp_path):
    plain = worker.run_pass(cli, SMALL, 3, str(tmp_path / "plain"))
    tracer = spans.Tracer()
    with tracer:
        assert ids.assemble is operators.assemble
        assert spectra.assemble is operators.assemble
        assert hasattr(operators.assemble, "__bench_traced__")
        traced = worker.run_pass(cli, SMALL, 3, str(tmp_path / "traced"))
    assert spans.installed_wrappers() == []
    assert not hasattr(ids.assemble, "__bench_traced__")
    assert traced.digests == plain.digests
    assert len(traced.digests) == 4
    assert all(not problems for _, problems in plain.ops + traced.ops)

    metrics = spans.layer_metrics(tracer.spans)
    # 3 trials x 9 energies, each trial's first call builds the structure
    assert metrics["spectra.count_below_calls"] == 27
    firsts = [s for s in tracer.spans
              if s.name == "spectra.count_below" and s.first]
    assert len(firsts) == 3
    assert metrics["verification.records"] == 1
    assert metrics["lattice.vertices_built"] == 123 + 42
    assert metrics["ids.trial_concurrency"] > 0.5
    # trial work on pool threads is charged to estimate_ids
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "operators.sample_potential":
            assert by_id[s.parent].name == "ids.estimate_ids"
    for layer in spans.LAYERS:
        assert metrics[f"{layer}.self_s"] >= 0.0


def _span(span_id, parent, start, end, name="cli.main"):
    s = spans.Span(span_id, name, parent, 0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_the_union_of_children():
    tree = [_span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 6.0),   # overlap
            _span(3, 0, 8.0, 12.0),                        # runs past parent
            _span(4, 1, 1.5, 2.0)]
    own = spans.self_times(tree)
    assert own[0] == 10.0 - (5.0 + 2.0)
    assert own[1] == 3.0 - 0.5
    assert own[4] == 0.5

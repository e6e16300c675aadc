"""Self-tests of the benchmark machinery: percentiles, self times, the
traced search counts and the output checks.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hodgelim.endo  # noqa: E402
import hodgelim.search  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_percentile_rule_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([7.0], 0.9) == 7.0
    for n in (100, 101, 157, 200):
        p90 = run.percentile(range(n), 0.9)
        assert sum(v > p90 for v in range(n)) >= 10


def test_self_time_subtracts_merged_child_coverage():
    # root [0,10] has children [1,4] and [3,6] (overlapping) and [8,12]
    # (running past the root); [2,3] is a grandchild under [1,4]
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 3.0, 1.0, 4.0]
    bookkeeping = [0.5, 0.0, 0.0, 0.0, 0.0]
    assert self_times(start, end, parent, bookkeeping)[0] == 2.5


def test_traced_search_counts_one_centralizer_per_step(tmp_path):
    cones = dict(workloads.search_cones())
    labels = ("row0.cone0", "row2.cone0", "row3.cone1")  # the first is empty
    jobs = []
    for label in labels:
        path = tmp_path / f"{label}.json"
        path.write_text(workloads.io.dump_text(
            workloads.io.orbit_to_json(cones[label])))
        jobs.append(workloads.cli_job(label, "search", [
            "search", str(path), "--restarts", "4", "--seed", "7"]))
    tracer = Tracer()
    tracer.install()
    try:
        outputs = [job.run() for job in jobs]
    finally:
        tracer.uninstall()
    assert not hasattr(hodgelim.search.centralizer_in, "__wrapped__")
    assert hodgelim.search.centralizer_in is hodgelim.endo.centralizer_in

    steps = nonempty = 0
    for label, (rc, out) in zip(labels, outputs):
        assert rc == 0
        orbit = cones[label]
        base = orbit.cone.span(orbit.ambient).dim
        steps += sum(d - base for d in json.loads(out)["restart_dims"])
        nonempty += orbit.cone.r > 0
    nid = tracer.names.index("endo.centralizer_in")
    calls = sum(1 for n in tracer.name_of if n == nid)
    assert nonempty == 2 and steps > 0
    assert calls == steps + nonempty
    assert tracer.counters["search.steps"] == steps


def test_digest_check_catches_an_altered_output(tmp_path):
    label = "row3.cone1"
    path = tmp_path / "cone.json"
    path.write_text(workloads.io.dump_text(workloads.io.orbit_to_json(
        dict(workloads.search_cones())[label])))
    rc, out = workloads.cli_job(label, "search", [
        "search", str(path), "--restarts", "2", "--seed", "0"]).run()
    reference = {"seed": 0, "workloads": {"search": {label: {
        "rc": rc, "sha256": workloads.digest(out), "invariants": None}}}}
    exact = workloads.Checker(reference, "search", 0)
    assert exact.ok(label, rc, out)
    assert not exact.ok(label, rc, out.replace("1", "2", 1))
    assert not exact.ok(label, 1 - rc, out)
    assert not exact.ok("unknown job", rc, out)
    other_seed = workloads.Checker(reference, "search", 5)
    assert other_seed.ok(label, rc, out)
    assert not other_seed.ok(
        label, rc, out.replace('"certified": true', '"certified": false'))


def test_invariants_do_not_depend_on_the_basis(tmp_path):
    n = workloads.jordan_nilpotent((3, 2))
    basis = workloads.dense_rational(5, workloads.random.Random(3))
    outs = []
    for name, m in (("canonical", n), ("moved", basis.op(n))):
        path = tmp_path / f"{name}.json"
        path.write_text(workloads.io.dump_text(
            {"N": workloads.io.matrix_to_json(m)}))
        outs.append(workloads.cli_job(name, "wfilt",
                                      ["wfilt", str(path)]).run())
    (rc0, out0), (rc1, out1) = outs
    assert rc0 == rc1 == 0 and out0 != out1
    assert (workloads.invariants(json.loads(out0))
            == workloads.invariants(json.loads(out1)))


def test_reference_keeps_the_dimension_four_mixed_length_result():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    search = reference["workloads"]["search"]
    dims = {search[f"search/row3.cone{c}/{r}"]["invariants"]["best_dim"]
            for c in (0, 1) for r in range(workloads.CATALOG_SEEDS_PER_CONE)}
    assert 4 in dims

"""Tests for the benchmark's span tracer and its oracles.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import sys
import threading
import types

import numpy as np
import pytest

import c0lat
from c0lat import modelspace, subspace, suites
from tracer import TRACED, Tracer
import workloads


def _fake_package(monkeypatch):
    """fakepkg.inner.leaf sleeps; fakepkg.outer imports leaf by name."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    exec("import time\ndef leaf():\n    time.sleep(0.02)\n", inner.__dict__)
    outer = types.ModuleType("fakepkg.outer")
    outer.leaf = inner.leaf
    exec("import time\ndef run():\n    time.sleep(0.01)\n    leaf()\n    leaf()\n", outer.__dict__)
    for name, module in (("fakepkg", pkg), ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    return inner, outer


def test_self_time_is_duration_minus_children(monkeypatch):
    inner, outer = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg", (("inner", "leaf"), ("outer", "run")))
    with tracer:
        tracer.job = 0
        outer.run()
        tracer.job = None
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (run,) = by_name["outer.run"]
    leaves = by_name["inner.leaf"]
    assert len(leaves) == 2 and all(s.parent == run.sid for s in leaves)
    selfs = tracer.self_times()
    assert selfs[run.sid] == pytest.approx(run.duration - sum(s.duration for s in leaves), abs=1e-12)
    assert 0.01 <= selfs[run.sid] <= run.duration - 0.04
    for s in leaves:
        assert selfs[s.sid] == s.duration >= 0.02
    calls, self_s = tracer.layer_totals()["inner.leaf"]
    assert calls == 2 and self_s == pytest.approx(sum(s.duration for s in leaves))


def test_spans_only_recorded_inside_a_job(monkeypatch):
    inner, outer = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg", (("inner", "leaf"),))
    with tracer:
        outer.leaf()
    assert tracer.spans == []


def test_rebinding_reaches_names_imported_across_modules():
    original = subspace.meet
    tracer = Tracer()
    with tracer:
        assert c0lat.jordan.meet is not original
        assert c0lat.jordan.meet.__wrapped__ is original
        assert c0lat.meet is c0lat.jordan.meet is subspace.meet
        job = workloads.modular_lattice_job(7, 0)
        tracer.job = 0
        _, passed, _ = job.call()
        tracer.job = None
    assert passed
    totals = tracer.layer_totals()
    assert totals["subspace.meet"][0] > 0
    assert totals["subspace.Subspace.from_span"][0] > 0
    assert totals["cli.report_render"][0] == 1
    by_id = {s.sid: s for s in tracer.spans}
    assert any(
        s.name == "subspace.meet"
        and s.parent in by_id
        and by_id[s.parent].name == "jordan.theorem97_verifier"
        for s in tracer.spans
    )


def test_parent_stack_is_per_thread_under_the_suite_pool(monkeypatch):
    monkeypatch.setenv("C0LAT_THREADS", "2")
    tracer = Tracer(targets=TRACED + (("suites", "thm97_suite"),))
    with tracer:
        tracer.job = 0
        report = suites.thm97_suite(trials=2, seed=3, triples=5)
        tracer.job = None
    assert report.passed
    by_id = {s.sid: s for s in tracer.spans}
    (suite_span,) = [s for s in tracer.spans if s.name == "suites.thm97_suite"]
    verifiers = [s for s in tracer.spans if s.name == "jordan.theorem97_verifier"]
    assert len(verifiers) == 2
    assert suite_span.thread == threading.main_thread().ident
    for s in verifiers:
        # opened in a worker while the suite span was open in the main thread
        assert s.thread != suite_span.thread
        assert s.parent is None
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
    assert tracer.trial_level_seconds([0]) == pytest.approx(sum(s.duration for s in verifiers))


def _bindings():
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "c0lat" or name.startswith("c0lat."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
    for cls in (subspace.Subspace, modelspace.ModelSpace):
        for attr, value in vars(cls).items():
            seen[(cls.__qualname__, attr)] = value
    return seen


def test_uninstall_restores_every_wrapped_name():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert _bindings() != before
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tracer.job = 0
    subspace.meet(subspace.Subspace.full(2), subspace.Subspace.zero(2))
    modelspace.ModelSpace(c0lat.BlaschkeProduct(((0.5, 1),)))
    assert tracer.spans == [] and not tracer.grid_points


def test_grid_points_counted_per_job():
    tracer = Tracer()
    theta = c0lat.BlaschkeProduct(((0.5, 1), (0.1j, 2)))
    with tracer:
        tracer.job = 4
        modelspace.compressed_shift(theta)
        tracer.job = None
    assert tracer.grid_points[4] == modelspace.default_quadrature_points(theta)


def test_closed_form_shift_matches_compressed_shift():
    rng = np.random.default_rng(11)
    for band in (8, 12, 15):
        theta = workloads.random_theta(rng, (1, 2, 1), workloads._band_modulus(rng, band))
        assert workloads.check_closed_form([theta]) == []
        assert workloads.check_divisor_dimensions([theta]) == []
        assert modelspace.default_quadrature_points(theta) == 2**band


def test_structure_oracles_agree_with_c0lat():
    rng = np.random.default_rng(5)
    (t1, t2), (s1, s2) = workloads._draw_c0(rng, (6, 5))
    space = c0lat.intertwiner_space(t1, t2)
    assert space.dimension == workloads.frobenius_gantmacher(s1, s2) > 0
    model = c0lat.jordan_model(t1)
    chain = workloads.model_chain(s1)
    assert len(model.thetas) == len(chain)
    assert all(workloads._match_zeros(th, want) for th, want in zip(model.thetas, chain))


def test_jobs_are_reproducible_from_the_seed():
    for make_job, block in workloads.WORKLOADS.values():
        for i in range(block):
            a, b = make_job(3, i), make_job(3, i)
            assert (a.kind, a.size) == (b.kind, b.size)
    job = workloads.model_divisor_job(3, 0)
    assert job.call()[0] == workloads.model_divisor_job(3, 0).call()[0]


def test_loop_pauses_between_blocks_and_runs_whole_blocks():
    import time

    import run

    ran, paused_at = [], []

    def make_job(_seed, i):
        def call():
            time.sleep(0.002)
            ran.append(i)
            return b"", True, None

        return workloads.Job("kind", "size", call, lambda _value: [])

    results = run._loop(make_job, 3, 0, 0.1, pause=lambda: paused_at.append(len(ran)), pauses=4)
    assert len(results) == len(ran) and len(ran) % 3 == 0
    assert len(paused_at) == 4 and all(n % 3 == 0 for n in paused_at)
    assert paused_at == sorted(set(paused_at)) and paused_at[-1] < len(ran)


def test_benchmark_json_names_every_emitted_metric():
    import json
    import pathlib

    import run

    spec = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    fake = run.Result(0, "kind", "size", True, 0, seconds=0.5, payload=b"{}")
    end_to_end, _ = run._end_to_end([fake], 0.7, True)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in end_to_end.items()
    }
    tracer = Tracer()
    layers = run.per_layer(tracer, [fake], 0.4)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()
    }

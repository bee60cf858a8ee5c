"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": [0, "x"], "info": {}}


class TestSpans:
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent=0),
            _span("b", 3.0, 6.0, parent=0),      # overlaps a
            _span("a.child", 2.0, 3.0, parent=1),
            _span("c", 8.0, 12.0, parent=0),     # runs past its parent
        ]
        assert tracing.self_times(spans) == pytest.approx(
            [10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0])

    def test_worker_thread_span_is_parented_to_submitter(self):
        tracer = tracing.Tracer()
        outer = tracer.begin("outer")
        box = []
        worker = threading.Thread(
            target=lambda: box.append(tracer.end(tracer.begin("inner"))))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer.end(outer)
        assert box[0]["parent"] == outer

    def test_instrumentation_wraps_every_binding_and_restores(self):
        from eitcool import cli, cooling
        orig = cooling.simulate_cooling
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer):
            assert cooling.simulate_cooling is not orig
            assert cli.simulate_cooling is cooling.simulate_cooling
        assert cooling.simulate_cooling is orig
        assert cli.simulate_cooling is orig


class TestMetricNames:
    def test_end_to_end_names_and_units_match_spec(self):
        spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert spec == run.E2E_UNITS

    def test_per_layer_names_and_units_match_spec(self):
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert spec == tracing.LAYER_UNITS

    def test_workloads_match_spec(self):
        assert [w["name"] for w in SPEC["workloads"]] == \
            list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_pass_prints_every_metric(workload, tmp_path, monkeypatch):
    """Tiny sizes (n_max 6): untraced and traced passes pass their checks
    and produce exactly the metric names of BENCHMARK.json."""
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    ops = workloads.build(workload, seed=3, smoke=True)
    tally = run.Tally()
    untraced = [run.run_pass(ops, tally, 0)]
    metrics, _ = run.end_to_end(ops, untraced, setup_s=1.0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        traced = [run.run_pass(ops, tally, 1, tracer)]
    layers, units = run.per_layer(tracer, traced, untraced)
    assert set(layers) == set(units) == {m["name"] for m in SPEC["per_layer"]}
    assert tally.problems == [] and tally.attempted == 2 * len(ops)
    if workload == "analysis":
        assert layers["cooling.self_frac"] == 0.0
        assert layers["lindblad.steadystate.calls"] == 2 * 12
    else:
        assert layers["cooling.self_frac"] > 0.0
        assert layers["cooling.steps"] > 0


# -- each check rejects a perturbed output --

def _op(workload, name):
    return next(op for op in workloads.build(workload, seed=0)
                if op.name == name)


def _rejects(op, good, mutate):
    assert op.verify(op, good) == []
    bad = copy.deepcopy(good)
    mutate(bad)
    assert op.verify(op, bad) != []


def test_power_scan_check():
    op = _op("cool-scan", "fig3a")
    good = {"power_scan.csv": {
        "failed": np.zeros(2), "n_ss": np.array(op.reference["n_ss"]),
        "detuning_mhz": np.array(op.reference["detuning_mhz"])}}
    _rejects(op, good, lambda o: o["power_scan.csv"]["n_ss"].__imul__(1.01))
    _rejects(op, good, lambda o: o["power_scan.csv"]["failed"].__setitem__(
        0, 1.0))
    _rejects(op, good, lambda o: o["power_scan.csv"][
        "detuning_mhz"].__iadd__(0.5))


def test_detuning_scan_check():
    op = _op("cool-scan", "fig2e")
    nb = np.array(op.reference["nbar"])
    good = {"detuning_scan.csv": {
        "nbar_final": nb, "is_argmin": (nb == nb.min()).astype(float)}}
    _rejects(op, good, lambda o: o["detuning_scan.csv"][
        "nbar_final"].__setitem__(1, nb[1] * 1.01))
    _rejects(op, good, lambda o: o["detuning_scan.csv"][
        "nbar_final"].__setitem__(0, np.nan))


def test_cool_check():
    op = _op("cool-long", "fig2b")
    good = {"cooling.csv": {"t_us": np.array(op.reference["t_us"]),
                            "nbar": np.array(op.reference["nbar"])},
            "cooling_fit.json": {}}
    _rejects(op, good, lambda o: o["cooling.csv"]["nbar"].__setitem__(
        -1, op.reference["nbar"][-1] * 0.99))


def test_spectrum_reference_check():
    op = _op("analysis", "fig1b")
    good = {"spectrum.csv": {"rho_ee_numeric": np.array(
        op.reference["rho_ee"])}}
    _rejects(op, good, lambda o: o["spectrum.csv"][
        "rho_ee_numeric"].__imul__(1.001))
    _rejects(op, good, lambda o: o["spectrum.csv"][
        "rho_ee_numeric"].__setitem__(5, np.nan))


def test_odf_check():
    op = _op("analysis", "fig4d")
    good = {"odf_spectrum.csv": {"P_up": np.array(op.reference["P_up"])}}
    _rejects(op, good, lambda o: o["odf_spectrum.csv"]["P_up"].__iadd__(
        1e-4))


def _real_output(op, tmp_path):
    code, artifacts = op.run(str(tmp_path / op.name))
    assert code == 0
    return workloads.read_artifacts(artifacts)


def test_spectrum_analytic_check(tmp_path):
    op = _op("analysis", "fig5")
    good = _real_output(op, tmp_path)

    def bump(o):
        rho = o["spectrum.csv"]["rho_ee_numeric"]
        rho[150:250] += 0.2 * rho.max()
    _rejects(op, good, bump)
    _rejects(op, good, lambda o: o["spectrum.csv"][
        "rho_ee_numeric"].__setitem__(0, np.nan))


def test_modes_check(tmp_path):
    op = _op("analysis", "fig4")
    good = _real_output(op, tmp_path)

    def shift_top(o):
        o["modes.json"]["mode_frequencies_mhz"][-1] *= 1 + 1e-7

    def move_ion(o):
        o["modes.json"]["positions_um"][0][0] += 1e-3

    def tilt_com(o):
        b = o["modes.json"]["participation_matrix"]
        b[0][-1] *= 1 + 1e-6
    for mutate in (shift_top, move_ion, tilt_com):
        _rejects(op, good, mutate)


def test_sideband_check(tmp_path):
    op = _op("analysis", "fig2d")
    good = _real_output(op, tmp_path)
    _rejects(op, good, lambda o: o["sideband.csv"]["P_up"].__iadd__(1e-6))


def test_stark_check():
    op = _op("analysis", "appendixE-drive")
    p = op.params()
    good = {"stark_fit.json": {k: p[k] for k in (
        "omega_plus_mhz", "omega_minus_mhz", "omega_pi_mhz")}}
    _rejects(op, good, lambda o: o["stark_fit.json"].__setitem__(
        "omega_pi_mhz", p["omega_pi_mhz"] * 1.02))


def test_thermometry_check():
    op = workloads.ThermometryOp(seed=5, n_noisy=2)
    good = op.run(None)
    assert op.check(good) == []
    bad = copy.deepcopy(good)
    truth, trace, ratio = bad["round_trips"][1]
    bad["round_trips"][1] = (truth, trace * 1.1, ratio)
    assert op.check(bad) != []
    bad = copy.deepcopy(good)
    bad["noisy"][0] = (0.06, float("nan"), 0.06, 0.01)
    assert op.check(bad) != []


def test_seed_drives_only_generated_inputs():
    a, b = (workloads.build("analysis", seed=s) for s in (1, 2))
    assert a[2].overrides != b[2].overrides                 # crystal seed
    assert not np.array_equal(a[-1].draws[0][0], b[-1].draws[0][0])
    again = workloads.build("analysis", seed=1)
    assert again[2].overrides == a[2].overrides
    assert np.array_equal(again[-1].draws[0][0], a[-1].draws[0][0])


def test_refuses_checkout_without_sources(tmp_path):
    """Without src/ run.py exits non-zero and prints no result."""
    import shutil
    import subprocess
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

"""Each fit model's analytic Jacobian against central differences.

Every fit model returns (y_hat, J).  The oracle is the central-difference
Jacobian that fit_least_squares used to build for itself, with the step
taken relative to each parameter (1e-6 |p_j|) so that a cooling time
constant in seconds is resolved.  The models are the closures the
library hands to fit_least_squares, captured by a spy that stops the fit.
"""

import numpy as np
import pytest

from eitcool import cooling, stark, thermometry, units
from eitcool.cooling import MotionalMode
from eitcool.stark import QUBITS, StarkParams, ramsey_signal
from eitcool.thermometry import SidebandParams

RTOL = 1e-6


def central_difference(model, x, p):
    J = np.empty((np.size(x), p.size))
    for j in range(p.size):
        step = 1e-6 * abs(p[j])
        pu, pd = p.copy(), p.copy()
        pu[j] += step
        pd[j] -= step
        J[:, j] = (model(x, pu)[0] - model(x, pd)[0]) / (2.0 * step)
    return J


class _Captured(Exception):
    pass


def captured_model(monkeypatch, module, run):
    """(model, x) that run() hands to module.fit_least_squares."""
    seen = {}

    def spy(model, data, p0):
        seen.update(model=model, x=np.asarray(data[0], dtype=float))
        raise _Captured

    monkeypatch.setattr(module, "fit_least_squares", spy)
    with pytest.raises(_Captured):
        run()
    return seen["model"], seen["x"]


def assert_matches_oracle(model, x, params):
    for p in params:
        p = np.asarray(p, dtype=float)
        y_hat, J = model(x, p)
        assert J.shape == (x.size, p.size)
        oracle = central_difference(model, x, p)
        for k in range(p.size):
            scale = np.abs(oracle[:, k]).max()
            assert scale > 0
            assert np.abs(J[:, k] - oracle[:, k]).max() <= RTOL * scale


def _sideband_cases():
    single = SidebandParams(mode=MotionalMode.from_lab(2.38, n_max=60),
                            rabi=units.mhz(0.5))
    com = MotionalMode.from_lab(2.38, n_max=20, b=np.full(3, 3**-0.5))
    dicke = SidebandParams(mode=com, rabi=units.mhz(0.5))
    dense = SidebandParams(mode=com,
                           rabi=units.mhz(np.array([0.4, 0.5, 0.6])))
    return {"single": single, "dicke": dicke, "dense": dense}


@pytest.mark.parametrize("case", ["single", "dicke", "dense"])
def test_sideband_trace_jacobian(monkeypatch, case):
    p = _sideband_cases()[case]
    t = np.linspace(0.0, 3.0 * p.blue_pi_time(), 40)
    model, x = captured_model(
        monkeypatch, thermometry,
        lambda: thermometry.fit_nbar_trace((t, np.zeros_like(t)), p))
    rng = np.random.default_rng(21)
    # (u, v) = (ln nbar, ln Rabi scale), nbar from 0.02 to 5
    params = np.column_stack([rng.uniform(np.log(0.02), np.log(5.0), 4),
                              rng.uniform(-0.2, 0.2, 4)])
    assert_matches_oracle(model, x, params)


def test_cooling_jacobian(monkeypatch):
    t = np.linspace(0.0, 20e-6, 30)
    nbar = 1.5 * np.exp(-t / 4e-6) + 0.05
    model, x = captured_model(
        monkeypatch, cooling,
        lambda: cooling._fit_exponential(t, nbar, nbar[0]))
    rng = np.random.default_rng(22)
    params = np.column_stack([rng.uniform(0.5, 3.0, 4),
                              rng.uniform(1e-6, 10e-6, 4),
                              rng.uniform(-0.2, 0.5, 4)])
    assert_matches_oracle(model, x, params)


def test_stark_jacobian(monkeypatch):
    drive = StarkParams.from_mhz(18.03, 16.74, 1.72, 55.6, delta_b=4.6,
                                 gamma_clock=2e3, gamma_zeeman=2e3)
    t = np.linspace(0.0, 2e-6, 200)
    traces = [(t, ramsey_signal(drive, q, t)) for q in QUBITS]
    model, x = captured_model(
        monkeypatch, stark,
        lambda: stark.fit_rabi_components(traces, drive))
    rng = np.random.default_rng(23)
    truth = np.array([drive.omega_plus, drive.omega_minus, drive.omega_pi])
    params = truth * rng.uniform(0.8, 1.2, (4, 3))
    assert_matches_oracle(model, x, params)


def test_heating_line_jacobian(monkeypatch):
    delays = np.array([0.0, 5e-3, 10e-3, 20e-3])
    model, x = captured_model(
        monkeypatch, thermometry,
        lambda: thermometry.heating_rate_fit(delays, 0.4 + 670.0 * delays))
    rng = np.random.default_rng(24)
    params = np.column_stack([rng.uniform(0.1, 2.0, 4),
                              rng.uniform(100.0, 1000.0, 4)])
    assert_matches_oracle(model, x, params)
    assert np.array_equal(model(x, params[0])[1],
                          np.column_stack([np.ones_like(x), x]))

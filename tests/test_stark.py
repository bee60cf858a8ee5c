"""Differential Stark shifts and joint Rabi-component calibration."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from eitcool import stark, units
from eitcool.numerics import ContractViolation, DegenerateFitError
from eitcool.stark import (QUBITS, NearResonanceError, StarkParams,
                           b_field_alignment, fit_rabi_components,
                           ramsey_signal, shift)

DRIVE = StarkParams.from_mhz(18.03, 16.74, 1.72, 55.6, delta_b=4.6,
                             gamma_clock=2e3, gamma_zeeman=2e3)
PROBE = StarkParams.from_mhz(3.17, 1.49, 6.67, 55.6, delta_b=4.6,
                             gamma_clock=2e3, gamma_zeeman=2e3)


def sample_traces(p, n_points=800):
    """Noiseless Ramsey triple resolving the fastest, spanning the
    slowest oscillation."""
    shifts = [abs(shift(p, q)) for q in QUBITS]
    t = np.linspace(0.0, 6.0 * np.pi / min(shifts), n_points)
    if np.max(shifts) * (t[1] - t[0]) > 0.5 * np.pi:
        t = np.linspace(0.0, t[-1],
                        int(np.ceil(np.max(shifts) * t[-1] / (0.4 * np.pi))))
    return t, [ramsey_signal(p, q, t) for q in QUBITS]


@pytest.mark.parametrize("key", ["gamma_clock", "gamma_zeeman"])
def test_negative_envelope_rate_rejected(key):
    with pytest.raises(ContractViolation, match=key):
        DRIVE.replace(**{key: -1.0})


class TestShifts:
    def test_clock_pi_only_closed_form(self):
        p = DRIVE.replace(omega_plus=0.0, omega_minus=0.0)
        d, dp, ds = p.delta, stark.P_HYPERFINE, stark.QUBIT_SPLITTING
        expected = p.omega_pi**2 * (1.0 / d + 1.0 / (dp + ds - d))
        assert abs(shift(p, "clock") - expected) < 1e-9 * abs(expected)

    def test_zeeman_near_component_dominates(self):
        # only the counter-rotating sigma component survives near detuning
        p = DRIVE.replace(omega_pi=0.0, omega_plus=0.0)
        d, db = p.delta, p.delta_b
        dp, ds = stark.P_HYPERFINE, stark.QUBIT_SPLITTING
        expected = p.omega_minus**2 * (1.0 / (d + db)
                                       - 1.0 / (dp - d - db)
                                       + 1.0 / (dp + ds - d))
        assert abs(shift(p, "zeeman+") - expected) < 1e-9 * abs(expected)

    def test_swap_symmetry(self):
        swapped = DRIVE.replace(omega_plus=DRIVE.omega_minus,
                                omega_minus=DRIVE.omega_plus,
                                delta_b=-DRIVE.delta_b)
        assert abs(shift(DRIVE, "zeeman+") - shift(swapped, "zeeman-")) \
            < 1e-9 * abs(shift(DRIVE, "zeeman+"))

    def test_clock_independent_of_sigma_split(self):
        a = DRIVE.replace(omega_plus=units.mhz(10.0),
                          omega_minus=units.mhz(5.0))
        b = DRIVE.replace(omega_plus=units.mhz(5.0),
                          omega_minus=units.mhz(10.0))
        assert abs(shift(a, "clock") - shift(b, "clock")) < 1e-9 * abs(
            shift(a, "clock"))

    def test_guard_band_small_delta(self):
        with pytest.raises(NearResonanceError):
            shift(DRIVE.replace(delta=units.mhz(0.1)), "clock")

    def test_exact_zero_denominator_is_guarded(self):
        # the guard runs before any division by the denominator
        p = DRIVE.replace(delta=stark.P_HYPERFINE + stark.QUBIT_SPLITTING)
        for q in QUBITS:
            with pytest.raises(NearResonanceError):
                ramsey_signal(p, q, [1e-6])

    def test_guard_band_zeeman_denominator(self):
        p = DRIVE.replace(delta=units.mhz(4.5), delta_b=units.mhz(4.6))
        with pytest.raises(NearResonanceError):
            shift(p, "zeeman-")

    def test_bad_sign_rejected(self):
        with pytest.raises(ContractViolation, match="unknown qubit"):
            shift(DRIVE, "zeeman0")

    def test_guard_band_is_per_qubit(self):
        # delta - delta_b is near zero: only the m = -1 Zeeman qubit has
        # that denominator
        p = DRIVE.replace(delta=units.mhz(4.5), delta_b=units.mhz(4.6))
        assert np.isfinite(shift(p, "clock"))
        assert np.isfinite(shift(p, "zeeman+"))
        assert np.all(np.isfinite(ramsey_signal(p, "clock", [1e-6])))
        with pytest.raises(NearResonanceError):
            ramsey_signal(p, "zeeman-", [1e-6])


def _explicit_shift(p, qubit):
    """Each qubit's differential shift written out term by term."""
    d, db = p.delta, p.delta_b
    dp, ds = stark.P_HYPERFINE, stark.QUBIT_SPLITTING
    if qubit == "clock":
        return (p.omega_pi**2 * (1.0 / d + 1.0 / (dp + ds - d))
                + (p.omega_minus**2 + p.omega_plus**2)
                * (1.0 / (dp + ds - d) - 1.0 / (dp - d)))
    sign = +1 if qubit == "zeeman+" else -1
    om_near = p.omega_minus if sign > 0 else p.omega_plus
    om_far = p.omega_plus if sign > 0 else p.omega_minus
    return (om_near**2 * (1.0 / (d + sign * db)
                          - 1.0 / (dp - d - sign * db)
                          + 1.0 / (dp + ds - d))
            + p.omega_pi**2 * (-1.0 / (dp - d) + 1.0 / (dp + ds - d))
            + om_far**2 / (dp + ds - d))


def _explicit_ramsey(p, qubit, t):
    """sin^2(shift t) times each qubit's decay envelopes, written out."""
    d, dp = p.delta, stark.P_HYPERFINE
    if qubit == "clock":
        env = (np.exp(-p.gamma_clock * p.omega_pi**2 * t / d**2)
               * np.exp(-p.gamma_clock
                        * (p.omega_minus**2 + p.omega_plus**2) * t
                        / (dp - d)**2))
    else:
        sign = +1 if qubit == "zeeman+" else -1
        om_near = p.omega_minus if sign > 0 else p.omega_plus
        env = (np.exp(-p.gamma_zeeman * om_near**2 * t
                      / (d + sign * p.delta_b)**2)
               * np.exp(-p.gamma_zeeman * p.omega_pi**2 * t / (dp - d)**2))
    return np.sin(_explicit_shift(p, qubit) * t)**2 * env


class TestCoefficientTable:
    def test_matches_explicit_formulas(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = StarkParams.from_mhz(
                rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0),
                rng.uniform(1.0, 20.0), rng.uniform(40.0, 70.0),
                delta_b=rng.uniform(1.0, 8.0),
                gamma_clock=rng.uniform(1e3, 5e3),
                gamma_zeeman=rng.uniform(1e3, 5e3))
            for q in QUBITS:
                ref = _explicit_shift(p, q)
                assert abs(shift(p, q) - ref) <= 1e-12 * abs(ref)
                t = np.linspace(0.0, 20.0 * np.pi / abs(ref), 400)
                ref_trace = _explicit_ramsey(p, q, t)
                assert np.abs(ramsey_signal(p, q, t) - ref_trace).max() \
                    <= 1e-12 * np.abs(ref_trace).max()


class TestRamsey:
    def test_zero_time_zero_signal(self):
        for q in QUBITS:
            assert ramsey_signal(DRIVE, q, 0.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ContractViolation):
            ramsey_signal(DRIVE, "clock", np.array([-1e-6]))

    def test_unknown_qubit_rejected(self):
        with pytest.raises(ContractViolation):
            ramsey_signal(DRIVE, "stretch", np.array([1e-6]))

    def test_bounded_and_decaying(self):
        t = np.linspace(0.0, 20e-6, 500)
        y = ramsey_signal(DRIVE, "clock", t)
        assert np.all((y >= 0.0) & (y <= 1.0))
        # decay envelope: late-time maxima below early-time maxima
        assert y[t > 15e-6].max() < y[t < 5e-6].max()

    def test_no_decay_without_gamma(self):
        p = DRIVE.replace(gamma_clock=0.0)
        clock = shift(p, "clock")
        t = np.pi / (2.0 * abs(clock))
        assert abs(ramsey_signal(p, "clock", t) - 1.0) < 1e-9


def _reference_estimate(t, y, env, n_best=3):
    """Per-frequency grid loop over the direct cost, as the factorised
    grid replaced; returns (grid costs, candidates)."""
    w_max = 0.9 * np.pi / np.min(np.diff(np.sort(t)))
    grid = np.linspace(0.0, w_max, max(8 * t.size, 512))

    def cost(w):
        return np.sum((y - np.sin(w * t)**2 * env)**2)

    costs = np.array([cost(w) for w in grid])
    interior = np.r_[False, (costs[1:-1] < costs[:-2])
                     & (costs[1:-1] <= costs[2:]), False]
    idx = np.nonzero(interior)[0]
    idx = idx[np.argsort(costs[idx])][:n_best]
    if idx.size == 0:
        idx = np.array([int(np.argmin(costs))])
    return costs, [minimize_scalar(cost, method="bounded",
                                   bounds=(grid[max(i - 1, 0)],
                                           grid[min(i + 1, grid.size - 1)])).x
                   for i in idx]


class TestOscillationGrid:
    def test_factorised_grid_matches_direct_cost(self):
        # sorted, non-uniform sample times with a decaying noisy signal
        rng = np.random.default_rng(11)
        n, h = 301, 200e-6 / 301
        t = np.sort(h * (np.arange(1, n + 1) + rng.uniform(-0.3, 0.3, n)))
        env = np.exp(-t / 150e-6)
        y = (np.sin(2.0 * np.pi * 37e3 * t)**2 * env
             + 0.01 * rng.normal(size=n))
        ref_costs, ref_cands = _reference_estimate(t, y, env)
        w_max = 0.9 * np.pi / np.min(np.diff(t))
        costs = stark._grid_costs(t, y, env, w_max / (ref_costs.size - 1),
                                  ref_costs.size)
        assert np.abs(costs - ref_costs).max() < 1e-12 * ref_costs.max()
        assert stark._estimate_oscillation(t, y, env) == ref_cands

    def test_grid_memory_stays_flat(self):
        # probe-sized trace: 1,200 samples, a 9,600-point grid; chunked it
        # peaks near 0.95 MB, one chunk over the whole grid near 47 MB
        t = np.linspace(0.0, 300e-6, 1200)
        env = np.exp(-t / 200e-6)
        y = np.sin(2.0 * np.pi * 20e3 * t)**2 * env
        tracemalloc.start()
        try:
            stark._estimate_oscillation(t, y, env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestFit:
    def test_round_trip_reference_triples(self):
        for p in (DRIVE, PROBE):
            t, traces = sample_traces(p)
            guess = p.replace(omega_plus=p.omega_plus * 1.25,
                              omega_minus=p.omega_minus * 0.8,
                              omega_pi=p.omega_pi * 1.2)
            fr = fit_rabi_components(list(zip([t] * 3, traces)), guess)
            truth = np.array([p.omega_plus, p.omega_minus, p.omega_pi])
            assert np.abs(fr.params - truth).max() < 0.01 * truth.min()

    def test_random_round_trips(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            p = StarkParams.from_mhz(
                rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0),
                rng.uniform(1.0, 20.0), rng.uniform(40.0, 70.0),
                delta_b=4.6, gamma_clock=2e3, gamma_zeeman=2e3)
            t, traces = sample_traces(p)
            guess = p.replace(
                omega_plus=p.omega_plus * rng.uniform(0.75, 1.3),
                omega_minus=p.omega_minus * rng.uniform(0.75, 1.3),
                omega_pi=p.omega_pi * rng.uniform(0.75, 1.3))
            fr = fit_rabi_components(list(zip([t] * 3, traces)), guess)
            truth = np.array([p.omega_plus, p.omega_minus, p.omega_pi])
            assert np.abs(fr.params / truth - 1.0).max() < 0.01

    def test_permuted_traces_fit_worse(self):
        t, traces = sample_traces(DRIVE)
        good = fit_rabi_components(list(zip([t] * 3, traces)), DRIVE)
        bad = fit_rabi_components(
            list(zip([t] * 3, [traces[1], traces[2], traces[0]])), DRIVE)
        assert bad.residual_norm > 10.0 * max(good.residual_norm, 1e-6)

    def test_exact_bootstrap_candidate_ends_search(self, monkeypatch):
        # the p0 guess is the fallback: a noiseless triple is solved from
        # the frequency bootstrap before the slow polish from p0 runs
        guesses = []
        real = stark.fit_least_squares

        def spy(model, data, p0):
            guesses.append(np.array(p0))
            return real(model, data, p0)

        monkeypatch.setattr(stark, "fit_least_squares", spy)
        t, traces = sample_traces(DRIVE)
        guess = DRIVE.replace(omega_plus=DRIVE.omega_plus * 1.1,
                              omega_minus=DRIVE.omega_minus * 0.9,
                              omega_pi=DRIVE.omega_pi * 1.05)
        fr = fit_rabi_components(list(zip([t] * 3, traces)), guess)
        p0 = [guess.omega_plus, guess.omega_minus, guess.omega_pi]
        assert not any(np.allclose(g, p0) for g in guesses)
        assert fr.residual_norm < 1e-9

    def test_programming_error_propagates(self, monkeypatch):
        def broken(model, data, p0):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(stark, "fit_least_squares", broken)
        t, traces = sample_traces(DRIVE)
        with pytest.raises(TypeError):
            fit_rabi_components(list(zip([t] * 3, traces)), DRIVE)

    def test_all_degenerate_chains_last_error(self, monkeypatch):
        raised = []

        def degenerate(model, data, p0):
            raised.append(DegenerateFitError("forced", np.inf))
            raise raised[-1]

        monkeypatch.setattr(stark, "fit_least_squares", degenerate)
        t, traces = sample_traces(DRIVE)
        with pytest.raises(ContractViolation) as info:
            fit_rabi_components(list(zip([t] * 3, traces)), DRIVE)
        assert len(raised) > 1
        assert info.value.__cause__ is raised[-1]

    def test_wrong_trace_count_rejected(self):
        t = np.linspace(0.0, 1e-5, 50)
        with pytest.raises(ContractViolation):
            fit_rabi_components([(t, np.zeros_like(t))] * 2, DRIVE)

    def test_trace_with_one_distinct_time_rejected(self):
        t, traces = sample_traces(DRIVE)
        items = list(zip([t] * 3, traces))
        items[1] = (np.full(3, t[5]), traces[1][:3])
        with pytest.raises(ContractViolation, match="at least 2 distinct"):
            fit_rabi_components(items, DRIVE)


class TestReporting:
    def test_b_field_alignment(self):
        assert abs(b_field_alignment([3.0, 4.0, 1.0]) - 0.2) < 1e-12
        with pytest.raises(ContractViolation):
            b_field_alignment([0.0, 0.0, 1.0])

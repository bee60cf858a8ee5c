"""Spans and counts for the traced benchmark run.

The traced run wraps public functions of each eitcool module from the
outside: every binding of the function object in a loaded ``eitcool``
module is replaced, so both the defining module (``eitcool.cooling.
simulate_cooling``) and each caller's import (``eitcool.cli.
simulate_cooling``) record a span.  Nothing under ``src/`` is edited and
the untraced run installs nothing.

A span is a dict ``{name, start, end, parent, op, info}``: ``parent`` is
the index of the enclosing span, ``op`` the (pass, operation) it belongs
to, and ``info`` the counts its wrapper took from the call's arguments
and result.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the part of it covered by its children.
"""

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# energies of BFGS restarts closer than this to the best one (in the
# crystal's dimensionless units) count as having reached the best structure
RESTART_BEST_TOL = 1e-9


class Tracer:
    """In-memory span recorder.

    Spans opened on a worker thread with no open span of its own are
    parented to the innermost open span of the thread that created the
    tracer (the pass loop), so thread-pool work is attributed to the call
    that submitted it.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        outer = stack or self._home
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": outer[-1] if outer else None, "op": self.op,
                "info": {}}
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx]["end"] = time.perf_counter()
        self._stack().pop()
        return self.spans[idx]


# -- wrappers --

def _on_simulate(info, call, result, exc):
    t_list = np.atleast_1d(np.asarray(call["t_list"], dtype=float))
    dt = call["dt"]
    steps, t = 0, 0.0
    for t_next in t_list:                    # the stepping loop's count
        n = max(0, int(round((t_next - t) / dt)))
        steps += n
        t += n * dt
    info.update(steps=steps, d=4 * (call["m"].n_max + 1),
                sim_s=float(t_list[-1]), fit=t_list.size >= 3)
    if result is not None:
        info["converged"] = bool(result.fit_converged)
        info["clamped"] = bool(result.fit_converged and result.n_ss == 0.0)


def _on_fit(info, call, result, exc):
    from eitcool.numerics import DegenerateFitError
    info["n_iter"] = result.n_iter if result is not None else 0
    info["degenerate"] = isinstance(exc, DegenerateFitError)


def _on_spectrum(info, call, result, exc):
    if result is not None:
        info["failed"] = int(np.sum(result.failed))


def _on_minimize(info, call, result, exc):
    if result is not None:
        info.update(nit=int(result.nit), fun=float(result.fun))


# (span name, defining module, attribute, hook on (info, args, result, exc))
TARGETS = (
    ("cli.run", "eitcool.cli", "run", None),
    ("cooling.power_scan", "eitcool.cooling", "power_scan", None),
    ("cooling.detuning_scan", "eitcool.cooling", "detuning_scan", None),
    ("cooling.simulate_cooling", "eitcool.cooling", "simulate_cooling",
     _on_simulate),
    ("cooling.hamiltonian_moving", "eitcool.cooling", "hamiltonian_moving",
     None),
    ("operators.displacement_exp", "eitcool.operators", "displacement_exp",
     None),
    ("numerics.fit_least_squares", "eitcool.numerics", "fit_least_squares",
     _on_fit),
    ("lindblad.steadystate", "eitcool.lindblad", "steadystate", None),
    ("spectrum.absorption_numeric", "eitcool.spectrum", "absorption_numeric",
     _on_spectrum),
    ("spectrum.absorption_analytic", "eitcool.spectrum",
     "absorption_analytic", None),
    ("crystal.equilibrium_positions", "eitcool.crystal",
     "equilibrium_positions", None),
    ("crystal.minimize", "eitcool.crystal", "minimize", _on_minimize),
    ("crystal.transverse_modes", "eitcool.crystal", "transverse_modes", None),
    ("thermometry.sideband_populations", "eitcool.thermometry",
     "sideband_populations", None),
    ("thermometry.fit_nbar_trace", "eitcool.thermometry", "fit_nbar_trace",
     None),
    ("thermometry.fit_nbar_ratio", "eitcool.thermometry", "fit_nbar_ratio",
     None),
    ("thermometry.ratio_nbar_sigma", "eitcool.thermometry",
     "ratio_nbar_sigma", None),
    ("thermometry.odf_signal", "eitcool.thermometry", "odf_signal", None),
    ("stark.fit_rabi_components", "eitcool.stark", "fit_rabi_components",
     None),
)


def _wrap(tracer, name, fn, hook):
    sig = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            span = tracer.end(idx)
            if hook is not None:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                hook(span["info"], call.arguments, result, exc)
    return wrapper


class Instrumentation:
    """Installs span wrappers on every eitcool binding of each target."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._patched = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "eitcool" or n.startswith("eitcool.")]
        for name, module, attr, hook in TARGETS:
            orig = getattr(importlib.import_module(module), attr)
            wrapper = _wrap(self.tracer, name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# -- span arithmetic --

def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted((max(spans[c]["start"], s["start"]),
                              min(spans[c]["end"], s["end"]))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


# per-layer metric -> unit; trace.overhead_frac and kernel.* are filled in
# by run.py, the rest by layer_metrics
LAYER_UNITS = {
    "cooling.simulate_cooling.calls": "count",
    "cooling.steps": "count",
    "cooling.step_us": "us",
    "cooling.step_flop_frac": "frac",
    "cooling.hamiltonian_moving.s": "s",
    "operators.displacement_exp.s": "s",
    "cooling.sim_us_per_s": "us/s",
    "cooling.detuning_scan.self_s": "s",
    "cooling.power_scan.self_s": "s",
    "cooling.fits": "count",
    "cooling.fit_converged_frac": "frac",
    "cooling.n_ss_clamped": "count",
    "cooling.self_frac": "frac",
    "numerics.fit_least_squares.calls": "count",
    "numerics.fit_least_squares.s": "s",
    "numerics.fit_least_squares.iters": "count",
    "numerics.fit_least_squares.degenerate": "count",
    "lindblad.steadystate.calls": "count",
    "lindblad.steadystate.us_per_call": "us",
    "spectrum.absorption_numeric.s": "s",
    "spectrum.absorption_analytic.s": "s",
    "spectrum.failed_points": "count",
    "crystal.equilibrium_positions.s": "s",
    "crystal.minimize.calls": "count",
    "crystal.minimize.nit": "count",
    "crystal.restarts_at_best_frac": "frac",
    "crystal.transverse_modes.s": "s",
    "thermometry.sideband_populations.s": "s",
    "thermometry.sideband_populations.calls": "count",
    "thermometry.fit_nbar_trace.s": "s",
    "thermometry.fit_nbar_ratio.s": "s",
    "thermometry.ratio_nbar_sigma.s": "s",
    "thermometry.odf_signal.s": "s",
    "stark.fit_rabi_components.s": "s",
    "stark.fits_per_call": "ratio",
    "cli.run.self_s": "s",
    "trace.overhead_frac": "frac",
    "kernel.zgemm_gflops.d104": "GFLOP/s",
    "kernel.zgemm_gflops.d164": "GFLOP/s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, selfs, indices, zgemm_rate):
    """Per-layer metrics of one pass from its spans.

    ``indices`` select the pass's spans from ``spans``, ``selfs`` are the
    self times of all spans, and ``zgemm_rate(d)`` is the measured
    complex matmul rate in flop/s at dimension d.  A step does two d x d
    complex products, 16 d^3 flop, so step_flop_frac is the time those
    products take at the measured rate over simulate_cooling's self time
    (computed, not counted).
    """
    by_name = defaultdict(list)
    for i in indices:
        by_name[spans[i]["name"]].append(i)

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in by_name[name])

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def info_sum(name, key):
        return sum(spans[i]["info"].get(key, 0) for i in by_name[name])

    def under(i, ancestor):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == ancestor:
                return True
            p = spans[p]["parent"]
        return False

    sim = "cooling.simulate_cooling"
    steps = info_sum(sim, "steps")
    sim_self = self_total(sim)
    ideal = sum(16.0 * spans[i]["info"]["d"] ** 3
                * spans[i]["info"]["steps"] / zgemm_rate(spans[i]["info"]["d"])
                for i in by_name[sim])
    fits = info_sum(sim, "fit")
    pass_s = sum(total(n) for n in by_name if n.startswith("op."))
    cooling_self = sum(self_total(n) for n in by_name
                       if n.startswith("cooling.")
                       or n == "operators.displacement_exp")

    restarts = at_best = 0
    groups = defaultdict(list)
    for i in by_name["crystal.minimize"]:
        groups[spans[i]["parent"]].append(spans[i]["info"]["fun"])
    for funs in groups.values():
        restarts += len(funs)
        at_best += sum(f - min(funs) <= RESTART_BEST_TOL for f in funs)

    lsq = "numerics.fit_least_squares"
    stark = "stark.fit_rabi_components"
    return {
        "cooling.simulate_cooling.calls": len(by_name[sim]),
        "cooling.steps": steps,
        "cooling.step_us": _ratio(sim_self, steps) * 1e6,
        "cooling.step_flop_frac": _ratio(ideal, sim_self),
        "cooling.hamiltonian_moving.s": total("cooling.hamiltonian_moving"),
        "operators.displacement_exp.s": total("operators.displacement_exp"),
        "cooling.sim_us_per_s": _ratio(info_sum(sim, "sim_s") * 1e6,
                                       total(sim)),
        "cooling.detuning_scan.self_s": self_total("cooling.detuning_scan"),
        "cooling.power_scan.self_s": self_total("cooling.power_scan"),
        "cooling.fits": fits,
        "cooling.fit_converged_frac": _ratio(info_sum(sim, "converged"),
                                             fits),
        "cooling.n_ss_clamped": info_sum(sim, "clamped"),
        "cooling.self_frac": _ratio(cooling_self, pass_s),
        "numerics.fit_least_squares.calls": len(by_name[lsq]),
        "numerics.fit_least_squares.s": total(lsq),
        "numerics.fit_least_squares.iters": info_sum(lsq, "n_iter"),
        "numerics.fit_least_squares.degenerate": info_sum(lsq, "degenerate"),
        "lindblad.steadystate.calls": len(by_name["lindblad.steadystate"]),
        "lindblad.steadystate.us_per_call": _ratio(
            total("lindblad.steadystate"),
            len(by_name["lindblad.steadystate"])) * 1e6,
        "spectrum.absorption_numeric.s": total("spectrum.absorption_numeric"),
        "spectrum.absorption_analytic.s":
            total("spectrum.absorption_analytic"),
        "spectrum.failed_points": info_sum("spectrum.absorption_numeric",
                                           "failed"),
        "crystal.equilibrium_positions.s":
            total("crystal.equilibrium_positions"),
        "crystal.minimize.calls": len(by_name["crystal.minimize"]),
        "crystal.minimize.nit": info_sum("crystal.minimize", "nit"),
        "crystal.restarts_at_best_frac": _ratio(at_best, restarts),
        "crystal.transverse_modes.s": total("crystal.transverse_modes"),
        "thermometry.sideband_populations.s":
            total("thermometry.sideband_populations"),
        "thermometry.sideband_populations.calls":
            len(by_name["thermometry.sideband_populations"]),
        "thermometry.fit_nbar_trace.s": total("thermometry.fit_nbar_trace"),
        "thermometry.fit_nbar_ratio.s": total("thermometry.fit_nbar_ratio"),
        "thermometry.ratio_nbar_sigma.s":
            total("thermometry.ratio_nbar_sigma"),
        "thermometry.odf_signal.s": total("thermometry.odf_signal"),
        "stark.fit_rabi_components.s": total(stark),
        "stark.fits_per_call": _ratio(
            sum(under(i, stark) for i in by_name[lsq]), len(by_name[stark])),
        "cli.run.self_s": self_total("cli.run"),
    }

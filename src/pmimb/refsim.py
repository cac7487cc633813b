"""Brute-force phase-frame reference simulation.

Two drive modes. Current-fed evaluates the machine equations exactly at
prescribed rotor-frame currents (no integration error, the comparison
basis for the closed-form models). Voltage-fed evaluates the exact
solution of the winding ODE under constant rotor-frame voltage commands
and an isolated star point, checked against fixed-step RK4 in
tests/oracles.py; ``steady_state_currents`` gives its exact dq steady state.
Each runner is a private plan, made once per run, and ``_blocked``. The
plan checks the drive and the channel names, does the run's setup and
returns the grid and an evaluator of any range of its indices; every
sample is closed form, so a range evaluated alone is bit for bit the full
run's there, whichever other channels it computes. The runners fill
their arrays a block of samples at a time, so memory is the kept channels
plus a fixed block working set; the simulate and compare jobs walk one
plan's evaluator block by block, writing and folding each block as they
go, and hold no grid-length array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, _require_finite
# demodulate and the delta functions are not called here; they stay bound
# because perfbench/tracing.py looks them up under this module's names.
from .harmonics import _BLOCK, demodulate
from .imbalance import (_FAMILIES, _terms, flux_delta, inductance_delta,
                        resistance_delta)
from .machine import (MachineParameters, OperatingPoint, decompose,
                      ideal_dq_nonsalient, phase_voltages, torque_abc)
from .transforms import _phase_basis, park_forward, park_inverse, phase_angles

# Resolution guard: at least this many samples per electrical period.
MIN_STEPS_PER_PERIOD = 200


@dataclass(frozen=True)
class SimConfig:
    """Sampling settings."""

    dt: float = 1e-6
    duration: float = 0.05

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError("dt must be positive")
        if not (np.isfinite(self.duration) and self.duration >= self.dt):
            raise ConfigError("duration must be at least one step")
        # Past 2**53 samples, index * dt repeats sample times. A count
        # past 2**64 is named to three digits, or as inf.
        steps = self.duration / self.dt
        if not steps < 2**53:
            count = round(steps) + 1 if steps < 2**64 else f"{steps:.3g}"
            raise ConfigError(f"duration / dt gives {count} grid samples, "
                              f"more than 2**53")


@dataclass
class TimeSeries:
    """Uniformly sampled named channels with a shared time base."""

    t: np.ndarray
    theta: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.t.ndim != 1 or self.t.size < 1:
            raise ValueError("t must be 1-D with at least 1 sample")
        if self.theta.shape != self.t.shape:
            raise ValueError("theta must match t in shape")
        # A block at a time, so no grid-sized temporary is made. A nan step
        # reads as not increasing; t is checked finite before the steps are
        # checked uniform, so an infinite step there is an overflow. A block
        # of one sample has no step; the initial values pass both checks.
        blocks = []
        for start in range(0, self.t.size, _BLOCK):
            part = slice(start, start + _BLOCK + 1)
            with np.errstate(over="ignore", invalid="ignore"):
                steps = np.diff(self.t[part])
            blocks.append((steps.min(initial=np.inf), steps.max(initial=0.0),
                           np.isfinite(self.t[part]).all(),
                           np.isfinite(self.theta[part]).all()))
        low, high, finite_t, finite_theta = np.array(blocks).T
        low, high = low.min(), high.max()
        if not low > 0.0:
            raise ValueError("t must be strictly increasing")
        if not finite_t.all():
            raise ValueError("t must be finite")
        # t = index * dt rounds each time to its float spacing, so the
        # steps spread by up to 2 ulp of the largest |t|, an end of t.
        ulp = np.spacing(max(abs(self.t[0]), abs(self.t[-1])))
        if not (np.isfinite(high) and high - low <= 1e-9 * high + 2 * ulp):
            raise ValueError("t must be uniformly sampled")
        if not finite_theta.all():
            raise ValueError("theta must be finite")
        for name, data in self.channels.items():
            data = np.asarray(data, dtype=float)
            if data.shape != self.t.shape:
                raise ValueError(f"channel {name!r} must match t in shape")
            self.channels[name] = data


def _grid_size(cfg: SimConfig):
    """Number of samples on the grid ``cfg`` describes, both ends included."""
    return int(round(cfg.duration / cfg.dt)) + 1


def _check_step(cfg: SimConfig, omega_e):
    """Refuse a step too coarse for the speed."""
    if omega_e != 0.0:
        period = 2.0 * math.pi / abs(omega_e)
        if cfg.dt > period / MIN_STEPS_PER_PERIOD:
            raise ConfigError(
                f"dt = {cfg.dt:g} s exceeds 1/{MIN_STEPS_PER_PERIOD} of the "
                f"electrical period {period:g} s"
            )


def _evaluator(cfg: SimConfig, omega_e, names, block):
    """An evaluator of any range of grid indices, for ``names`` or other
    channels of the run: it returns their times, angles and ``block``'s
    {name: values}, each bit for bit the full grid's. A time is its index
    times dt. A lone sample's matrix product rounds apart from the same
    sample's in a block, so a lone sample i runs as [i, i], first kept."""
    def evaluate(index, channels=names):
        size = len(index)
        # Whole numbers below 2**53, so each is its index exactly.
        t = np.arange(index.start, index.stop, index.step, dtype=float)
        t = t.repeat(2) if size == 1 else t
        t *= cfg.dt
        theta = omega_e * t
        return t[:size], theta[:size], {name: values[:size] for name, values
                                        in block(t, theta, channels).items()}
    return evaluate


def _steady_phasor(params: MachineParameters, v_d, v_q, omega_e):
    # L_red, R_red and X of run_voltage_fed's Notes, where phase x sees
    # Re(G_x e^{j theta}) = v_d cos th_x + (v_q - omega_e lam_x) sin th_x.
    reduce_map = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    l_red = reduce_map.T @ params.inductance_matrix() @ reduce_map
    r_red = reduce_map.T @ (params.resistances()[:, None] * reduce_map)
    g = ((v_d - 1j * (v_q - omega_e * params.pm_flux()))
         * np.exp(1j * phase_angles(0.0)))
    try:
        x_ss = np.linalg.solve(r_red + 1j * omega_e * l_red, g[:2] - g[2])
    except np.linalg.LinAlgError as exc:
        raise InputError(f"the voltage-fed winding equations cannot be "
                         f"solved: {exc}") from exc
    return l_red, r_red, x_ss


_PHASE_V, _PHASE_I = ("v_a", "v_b", "v_c"), ("i_a", "i_b", "i_c")
_DQ0_V, _DQ0_I = ("v_d", "v_q", "v_0"), ("i_d", "i_q", "i_0")
# A current-fed run's channels in the order None gives; voltage-fed adds v_n.
CURRENT_FED_CHANNELS = _PHASE_V + _PHASE_I + _DQ0_V + _DQ0_I + ("t_e",)
VOLTAGE_FED_CHANNELS = CURRENT_FED_CHANNELS + ("v_n",)


def _names(channels, available):
    """``channels`` as a list in the order given, all of ``available`` for
    None. A bare string (read one character at a time), a name not
    available or one listed twice is refused, the first in order."""
    if channels is None:
        return list(available)
    if isinstance(channels, str):
        raise ConfigError(f"channels must be a collection of names, "
                          f"not the string {channels!r}")
    names = list(channels)
    for idx, name in enumerate(names):
        if name not in available:
            raise ConfigError(f"unknown channel {name!r} "
                              f"(available: {', '.join(available)})")
        if name in names[:idx]:
            raise ConfigError(f"channel {name!r} is listed twice")
    return names


def _needs(names, *groups):
    return any(name in names for group in groups for name in group)


def _assemble(params, basis, names, i_abc, v_abc, **more):
    # Each projection and the torque run only for the channels they feed.
    channels = dict(zip(_PHASE_I, i_abc), **more)
    if v_abc is not None:
        channels.update(zip(_PHASE_V, v_abc))
    if _needs(names, _DQ0_I):
        channels.update(zip(_DQ0_I, park_forward(i_abc, basis)))
    if _needs(names, _DQ0_V):
        channels.update(zip(_DQ0_V, park_forward(v_abc, basis)))
    if "t_e" in names:
        channels["t_e"] = torque_abc(params, i_abc, basis)
    return {name: channels[name] for name in names}


def _blocked(index, names, evaluate):
    """The TimeSeries of the grid indices ``index`` with channels ``names``,
    its arrays allocated first, then filled from ``evaluate`` a block of
    ``_BLOCK`` indices at a time."""
    arrays = [np.empty(len(index)) for _ in range(2 + len(names))]
    for start in range(0, len(index), _BLOCK):
        part = slice(start, start + _BLOCK)
        t, theta, channels = evaluate(index[part])
        for array, values in zip(arrays, (t, theta, *channels.values())):
            array[part] = values
        # Freed before the next block is evaluated, not after.
        del t, theta, channels, values
    t, theta, *columns = arrays
    return TimeSeries(t, theta, dict(zip(names, columns)))


def run_current_fed(params: MachineParameters, i_dq_cmd, omega_e,
                    cfg: SimConfig, i_0=0.0, channels=None) -> TimeSeries:
    """Evaluate the machine exactly under prescribed rotor-frame currents.

    Parameters
    ----------
    params : MachineParameters
        Machine under test.
    i_dq_cmd : (float, float)
        Constant commanded (i_d, i_q) in A.
    omega_e : float
        Electrical speed (rad/s), constant.
    cfg : SimConfig
        Sampling grid.
    i_0 : float, optional
        Constant zero-sequence current; physical star connections keep
        this at zero, the knob exists to exercise zero-sequence coupling.
    channels : collection of str, optional
        Names to return, in the order given (a set gives its own
        iteration order); None, the default, gives all of
        ``CURRENT_FED_CHANNELS`` in that order. Only what they need is
        computed, bit for bit as in the full run, a block of samples at a
        time: memory is the kept channels plus a fixed block working set.
        A bare string, a name outside that tuple or a name listed twice
        raises ``ConfigError`` before any sample array exists.

    Returns
    -------
    TimeSeries
        Phase and rotor-frame voltages and currents plus torque, or the
        named ones in the order named, at every grid sample. Exact:
        currents are imposed, so no integration is involved.

    """
    return _blocked(*_current_fed_plan(params, i_dq_cmd, omega_e, cfg, i_0,
                                       channels))


def _current_fed_plan(params, i_dq_cmd, omega_e, cfg, i_0=0.0, channels=None):
    """``run_current_fed``'s checks, in its order, then the grid's indices,
    the channel names and an evaluator of any range of grid indices."""
    i_d, i_q = (float(v) for v in i_dq_cmd)
    _require_finite(ConfigError, omega_e=omega_e, i_dq_cmd=(i_d, i_q), i_0=i_0)
    names = _names(channels, CURRENT_FED_CHANNELS)
    _check_step(cfg, omega_e)

    def block(t, theta, names):
        basis = _phase_basis(theta)
        i_abc = np.stack(park_inverse((i_d, i_q, i_0), basis))
        v_abc = None
        if _needs(names, _PHASE_V, _DQ0_V):
            # Constant rotor-frame currents rotate in the phase frame:
            # di_abc/dt is the inverse transform of (omega i_q, -omega i_d, 0).
            di_abc = np.stack(park_inverse(
                (omega_e * i_q, -omega_e * i_d, 0.0), basis))
            v_abc = phase_voltages(params, i_abc, di_abc, basis, omega_e)
        return _assemble(params, basis, names, i_abc, v_abc)
    return (range(_grid_size(cfg)), names,
            _evaluator(cfg, omega_e, names, block))


def run_voltage_fed(params: MachineParameters, v_dq_cmd, omega_e,
                    cfg: SimConfig, channels=None) -> TimeSeries:
    """Solve the voltage-fed machine with an isolated star point.

    Parameters
    ----------
    params : MachineParameters
        Machine under test; its inductance matrix must be positive
        definite (enforced at construction).
    v_dq_cmd : (float, float)
        Constant commanded (v_d, v_q) in V, applied through the inverse
        transform with zero common-mode drive.
    omega_e : float
        Electrical speed (rad/s), constant.
    cfg : SimConfig
        Sampling grid.
    channels : collection of str, optional
        As for ``run_current_fed``, over ``VOLTAGE_FED_CHANNELS``, memory
        too: the kept channels plus a fixed block working set. Without a
        voltage channel or "v_n" the winding voltages are not reconstructed.

    Returns
    -------
    TimeSeries
        All standard channels plus "v_n", the star-point displacement
        voltage, or the named ones in the order named, at every grid
        sample. Voltage channels are winding voltages (terminal minus
        star point) from ``phase_voltages``, so v_0 = -v_n to rounding.
        Initial currents are zero, at grid index 0.

    Notes
    -----
    The isolated star point forces i_a + i_b + i_c = 0, so the state is
    reduced to x = (i_a, i_b) and the zero-sequence current is zero by
    construction. Differencing the winding equations against phase c
    removes the star-point voltage and leaves a linear system with
    constant coefficients,

        x' = A x + Re(F e^{j theta}),  A = -H R_red,  F = H (G_ab - G_c),

    with H = L_red^-1 and phase x driven by Re(G_x e^{j theta}). Its
    solution from rest is evaluated exactly at every grid sample:

        x(t) = Re(X e^{j theta}) - e^{A t} Re(X),

    X = (j omega_e I - A)^-1 F = (R_red + j omega_e L_red)^-1 (G_ab - G_c).
    With L_red = C C^T, A is similar to the symmetric negative-definite
    -C^-1 R_red C^-T, so its eigenvalues are real and negative: e^{A t}
    comes from a real symmetric eigendecomposition, and j omega_e I - A
    is invertible at every speed. dt only sets the sampling grid. Where
    floating point makes it singular all the same (a phase resistance of
    1e300 beside 0.1), ``InputError`` is raised.

    """
    return _blocked(*_voltage_fed_plan(params, v_dq_cmd, omega_e, cfg,
                                       channels))


def _voltage_fed_plan(params, v_dq_cmd, omega_e, cfg, channels=None):
    """``run_voltage_fed``'s checks, in its order, and its setup, then the
    grid's indices, the channel names and an evaluator of any range of
    grid indices."""
    v_d, v_q = (float(v) for v in v_dq_cmd)
    _require_finite(ConfigError, omega_e=omega_e, v_dq_cmd=(v_d, v_q))
    names = _names(channels, VOLTAGE_FED_CHANNELS)
    _check_step(cfg, omega_e)

    l_red, r_red, x_ss = _steady_phasor(params, v_d, v_q, omega_e)
    chol = np.linalg.cholesky(l_red)
    rates, q = np.linalg.eigh(
        np.linalg.solve(chol, np.linalg.solve(chol, r_red).T))
    # e^{A t} = V e^{-rates t} V^-1 with V = C^-T Q and V^-1 = Q^T C^T.
    modes = np.linalg.solve(chol.T, q)
    start = -(q.T @ chol.T @ x_ss.real)
    x_re, x_im = x_ss.real[:, None], x_ss.imag[:, None]

    def block(t, theta, names):
        basis = _phase_basis(theta)
        decay = start[:, None] * np.exp(-rates[:, None] * t)
        # Row 0 of the basis is cos/sin of theta - 0.0, which is theta.
        i_ab = x_re * basis.cos[0] - x_im * basis.sin[0] + modes @ decay
        i_abc = np.vstack([i_ab, -i_ab[0] - i_ab[1]])
        if not _needs(names, _PHASE_V, _DQ0_V, ("v_n",)):
            return _assemble(params, basis, names, i_abc, None)
        di_ab = (-omega_e * (x_re * basis.sin[0] + x_im * basis.cos[0])
                 - modes @ (rates[:, None] * decay))
        di_abc = np.vstack([di_ab, -di_ab[0] - di_ab[1]])
        v_abc = phase_voltages(params, i_abc, di_abc, basis, omega_e)
        v_n = np.mean(park_inverse((v_d, v_q, 0.0), basis) - v_abc, axis=0)
        return _assemble(params, basis, names, i_abc, v_abc, v_n=v_n)
    return (range(_grid_size(cfg)), names,
            _evaluator(cfg, omega_e, names, block))


def steady_state_currents(params: MachineParameters, v_dq_cmd, omega_e):
    """Exact steady-state dq currents under ``run_voltage_fed``'s drive.

    The phase currents settle to Re(X_x e^{j theta}), X_c = -X_a - X_b.
    With I_p, P_d the means of X_x e^{+-j s_x}, s = (0, beta, 2 beta), it
    returns the DC (Re I_p, -Im I_p) in A and the only ripple, the 2theta
    pair (P_d, -j P_d) in the convention of ``predict_current_ripple``.
    Raises ``InputError`` where ``run_voltage_fed`` does: when the
    winding equations are numerically singular.
    """
    _require_finite(ConfigError, omega_e=omega_e, v_dq_cmd=v_dq_cmd)
    if omega_e == 0.0:
        raise ConfigError("steady-state ripple requires nonzero speed")
    _, _, x_ab = _steady_phasor(params, *v_dq_cmd, omega_e)
    x_abc = np.append(x_ab, -x_ab.sum())
    shift = np.exp(-1j * phase_angles(0.0))
    i_p = complex(np.sum(x_abc * shift)) / 3.0
    p_d = complex(np.sum(x_abc / shift)) / 3.0
    return (i_p.real, -i_p.imag), (p_d, -1j * p_d)


def predict_current_ripple(params: MachineParameters, omega_e, i_d, i_q):
    """First-order 2theta current ripple under constant voltage drive.

    The imbalance voltage deltas, evaluated at the balanced operating
    currents, act as a disturbance at twice the electrical frequency;
    dividing by the rotor-frame impedance at that frequency gives the
    ripple phasors:

        delta_i = -Z(2 omega_e)^-1 delta_v

    Returns the complex (d, q) ripple pair; the waveform contribution is
    Re(delta_i * exp(j 2 theta)).
    """
    if omega_e == 0.0:
        raise ConfigError("ripple prediction requires nonzero speed")
    dec = decompose(params)
    r = dec.nominal_r
    l_sync = dec.nominal_l + dec.nominal_m

    # Each family adds Re(P e^{j2theta}) to v_d and Re(-j P e^{j2theta})
    # to v_q, with P = (C_2theta/3)(x_d - j x_q) from its spread and drive.
    op = vars(OperatingPoint(theta=0.0, omega_e=omega_e, i_d=i_d, i_q=i_q))
    p_d = sum(c_2theta / 3.0 * (x_d - 1j * x_q)
              for _, c_2theta, _, (x_d, x_q, _) in (
                  _terms(family, vars(dec), op) for family in _FAMILIES))
    v_tilde = np.array([p_d, -1j * p_d])
    # Rotor-frame impedance seen by a 2theta perturbation.
    z = np.array([
        [r + 2j * omega_e * l_sync, omega_e * l_sync],
        [-omega_e * l_sync, r + 2j * omega_e * l_sync],
    ])
    ripple = -np.linalg.solve(z, v_tilde)
    return complex(ripple[0]), complex(ripple[1])


def balanced_voltage_command(params: MachineParameters, omega_e, i_d, i_q):
    """Steady-state (v_d, v_q) that drives the balanced part to (i_d, i_q)."""
    op = OperatingPoint(theta=0.0, omega_e=omega_e, i_d=i_d, i_q=i_q)
    v_d, v_q, _ = ideal_dq_nonsalient(params, op)
    return float(v_d), float(v_q)

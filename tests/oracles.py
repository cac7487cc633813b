"""Independent brute-force references for the test suite.

Everything here is rebuilt from first principles: explicit transform
matrices, explicit phase-frame voltage evaluation, quadrature co-energy,
fixed-step RK4 integration of the voltage-fed windings, value-by-value
CSV formatting, CSV reading by ``np.loadtxt``.
Deliberately redundant with the package so each side checks the other;
nothing in this module calls package code.
"""

import math
import warnings

import numpy as np

BETA = 2.0 * np.pi / 3.0


def phase_angle_vec(theta):
    return np.array([theta, theta - BETA, theta - 2.0 * BETA])


def t_forward(theta):
    """Forward transform matrix: rows (2/3)cos, (2/3)sin, 1/3."""
    ang = phase_angle_vec(theta)
    return np.array([
        (2.0 / 3.0) * np.cos(ang),
        (2.0 / 3.0) * np.sin(ang),
        np.full(3, 1.0 / 3.0),
    ])


def t_inverse(theta):
    """Inverse transform matrix: columns cos, sin, 1."""
    ang = phase_angle_vec(theta)
    return np.column_stack([np.cos(ang), np.sin(ang), np.ones(3)])


def inductance_matrix(l_abc, m_pairs):
    l_a, l_b, l_c = l_abc
    m_ab, m_bc, m_ca = m_pairs
    return np.array([
        [l_a, -m_ab, -m_ca],
        [-m_ab, l_b, -m_bc],
        [-m_ca, -m_bc, l_c],
    ])


def dq_voltages_brute(r_abc, l_abc, m_pairs, lam_abc, theta, omega,
                      i_dq0, di_dq0):
    """Rotor-frame voltages by the full phase-frame path at one angle.

    Phase currents come from the inverse transform; their derivatives
    from the product rule on T_i(theta(t)) with constant rotor-frame
    derivatives di_dq0.
    """
    r_abc = np.asarray(r_abc, dtype=float)
    lam_abc = np.asarray(lam_abc, dtype=float)
    i_dq0 = np.asarray(i_dq0, dtype=float)
    di_dq0 = np.asarray(di_dq0, dtype=float)
    ti = t_inverse(theta)
    i_abc = ti @ i_dq0
    rotated = np.array([
        di_dq0[0] + omega * i_dq0[1],
        di_dq0[1] - omega * i_dq0[0],
        di_dq0[2],
    ])
    di_abc = ti @ rotated
    emf = omega * lam_abc * np.sin(phase_angle_vec(theta))
    v_abc = r_abc * i_abc + inductance_matrix(l_abc, m_pairs) @ di_abc + emf
    return t_forward(theta) @ v_abc


def dq_voltage_sweep(r_abc, l_abc, m_pairs, lam_abc, thetas, omega,
                     i_dq0, di_dq0):
    """dq_voltages_brute over a theta grid, stacked (3, n), loop free."""
    thetas = np.asarray(thetas, dtype=float)
    r_abc = np.asarray(r_abc, dtype=float)[:, None]
    lam_abc = np.asarray(lam_abc, dtype=float)[:, None]
    i_d, i_q, i_0 = (float(v) for v in i_dq0)
    di_d, di_q, di_0 = (float(v) for v in di_dq0)
    ang = thetas[None, :] - np.array([0.0, BETA, 2.0 * BETA])[:, None]
    cos, sin = np.cos(ang), np.sin(ang)
    i_abc = i_d * cos + i_q * sin + i_0
    di_abc = ((di_d + omega * i_q) * cos + (di_q - omega * i_d) * sin + di_0)
    emf = omega * lam_abc * sin
    v_abc = r_abc * i_abc + inductance_matrix(l_abc, m_pairs) @ di_abc + emf
    return np.vstack([
        (2.0 / 3.0) * np.sum(v_abc * cos, axis=0),
        (2.0 / 3.0) * np.sum(v_abc * sin, axis=0),
        np.mean(v_abc, axis=0),
    ])


def coenergy_torque(l_abc, m_pairs, lam_abc, i_abc, theta, pole_pairs,
                    step=1e-6, quad_points=2001):
    """Torque by central difference of the quadrature co-energy.

    W'(theta) = integral_0^1 lambda(s i, theta) . i ds along the straight
    current path; torque = N_p dW'/dtheta.
    """
    i_abc = np.asarray(i_abc, dtype=float)
    lam_abc = np.asarray(lam_abc, dtype=float)
    l_mat = inductance_matrix(l_abc, m_pairs)
    s = np.linspace(0.0, 1.0, quad_points)

    def coenergy(th):
        pm_term = -lam_abc * np.cos(phase_angle_vec(th))
        lam = l_mat @ (i_abc[:, None] * s) + pm_term[:, None]
        return np.trapezoid(np.sum(lam * i_abc[:, None], axis=0), s)

    return pole_pairs * (coenergy(theta + step)
                         - coenergy(theta - step)) / (2.0 * step)


def voltage_fed_rk4(r_abc, l_abc, m_pairs, lam_abc, v_dq, omega, dt,
                    n_steps):
    """Voltage-fed machine with an isolated star point by classic RK4.

    The state is (i_a, i_b) with i_c = -i_a - i_b, starting at rest; the
    star-point voltage is eliminated by differencing the winding rows
    against phase c. Fixed steps of dt, one Python iteration per step.
    Returns i_a, i_b and the star-point voltage v_n on the n_steps + 1
    samples t = k dt.
    """
    v_d, v_q = (float(v) for v in v_dq)
    l_mat = inductance_matrix(l_abc, m_pairs)
    reduce_map = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    h = np.linalg.inv(reduce_map.T @ l_mat @ reduce_map)
    h00, h01 = float(h[0, 0]), float(h[0, 1])
    h10, h11 = float(h[1, 0]), float(h[1, 1])

    r_a, r_b, r_c = (float(v) for v in r_abc)
    wl_a, wl_b, wl_c = (omega * float(v) for v in lam_abc)
    rt3_2 = math.sqrt(3.0) / 2.0
    w_dt = omega * dt

    cos = math.cos
    sin = math.sin

    def deriv(th, ia, ib):
        c_a = cos(th)
        s_a = sin(th)
        # Phase b and c angles by exact 2*pi/3 rotations.
        c_b = -0.5 * c_a + rt3_2 * s_a
        s_b = -0.5 * s_a - rt3_2 * c_a
        c_c = -0.5 * c_a - rt3_2 * s_a
        s_c = -0.5 * s_a + rt3_2 * c_a
        ic = -ia - ib
        r0 = v_d * c_a + v_q * s_a - r_a * ia - wl_a * s_a
        r1 = v_d * c_b + v_q * s_b - r_b * ib - wl_b * s_b
        r2 = v_d * c_c + v_q * s_c - r_c * ic - wl_c * s_c
        u0 = r0 - r2
        u1 = r1 - r2
        return h00 * u0 + h01 * u1, h10 * u0 + h11 * u1

    hist_a = np.empty(n_steps + 1)
    hist_b = np.empty(n_steps + 1)
    hist_a[0] = 0.0
    hist_b[0] = 0.0
    ia = 0.0
    ib = 0.0
    sixth = dt / 6.0
    half = 0.5 * dt
    for k in range(n_steps):
        th0 = w_dt * k
        th_half = th0 + 0.5 * w_dt
        th1 = th0 + w_dt
        a1, b1 = deriv(th0, ia, ib)
        a2, b2 = deriv(th_half, ia + half * a1, ib + half * b1)
        a3, b3 = deriv(th_half, ia + half * a2, ib + half * b2)
        a4, b4 = deriv(th1, ia + dt * a3, ib + dt * b3)
        ia += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        ib += sixth * (b1 + 2.0 * (b2 + b3) + b4)
        hist_a[k + 1] = ia
        hist_b[k + 1] = ib

    # Star point from the sum of the three winding equations.
    ang = phase_angle_vec(omega * dt * np.arange(n_steps + 1))
    i_abc = np.stack([hist_a, hist_b, -hist_a - hist_b])
    rhs = (v_d * np.cos(ang) + (v_q - omega * np.asarray(lam_abc)[:, None])
           * np.sin(ang) - np.asarray(r_abc)[:, None] * i_abc)
    di_ab = h @ (rhs[:2] - rhs[2])
    di_abc = np.vstack([di_ab, -di_ab[0] - di_ab[1]])
    v_n = np.mean(rhs - l_mat @ di_abc, axis=0)
    return hist_a, hist_b, v_n


def csv_text(names, columns, stride=1):
    """CSV text the way the package's writer must produce it.

    One header line of names, then one line per kept sample, each value
    formatted on its own with ``{:.17g}`` and joined by commas.
    """
    lines = [",".join(names) + "\n"]
    for row in zip(*(np.asarray(col)[::stride] for col in columns)):
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def loadtxt_outcome(path):
    """What ``np.loadtxt`` reads of a CSV under the package's reader
    contract: {column name: the bytes of its float64 values}, or the
    reason it refuses the file.

    The text is UTF-8, read with universal newlines; a byte-order mark
    before the header is dropped; the header's names are neither blank
    nor repeated; ``#`` is no comment; there is at least one data row,
    every row has one cell per name and every cell is finite.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().removeprefix("\ufeff").strip()
            names = header.split(",")
            if (not header or not all(name.strip() for name in names)
                    or len(set(names)) < len(names)):
                return "header"
            with warnings.catch_warnings():  # an empty body warns
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(handle, delimiter=",", ndmin=2,
                                  comments=None)
    except (UnicodeDecodeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if (not data.shape[0] or data.shape[1] != len(names)
            or not np.isfinite(data).all()):
        return "rows"
    return {name: data[:, idx].tobytes() for idx, name in enumerate(names)}

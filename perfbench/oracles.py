"""Reference values computed apart from jacksonq.

Nothing in this module imports jacksonq. Each oracle works from a closed
form: q-series coefficients from q-Pochhammer products in mpmath at 34
significant digits, counting functions as explicit sums over a zero
lattice or a root list, and log|f| of a rational function or lattice
product from its factors. A fault in the program therefore cannot cancel
out of a comparison.
"""

from __future__ import annotations

import math

import numpy as np

DPS = 34


def _mp():
    import mpmath

    return mpmath


# ---------------------------------------------------------------------------
# q-series coefficients
# ---------------------------------------------------------------------------


def pochhammer_ladder(a, q, n_max: int) -> list:
    """[(a;q)_0, ..., (a;q)_{n_max}] as mpmath numbers, from the product
    definition prod_{j<n} (1 - a q^j)."""
    mp = _mp()
    with mp.workdps(DPS):
        a, q = mp.mpc(a), mp.mpc(q)
        out = [mp.mpc(1)]
        aqj = a
        for _ in range(n_max):
            out.append(out[-1] * (1 - aqj))
            aqj *= q
        return out


def q_factorial(n: int, q) -> complex:
    """[n]_q! = (q;q)_n / (1-q)^n, rounded to a Python complex."""
    mp = _mp()
    with mp.workdps(DPS):
        qq = pochhammer_ladder(q, q, n)[n]
        return complex(qq / (1 - mp.mpc(q)) ** n)


def series_coefficients(q, N: int, alphas=(), betas=()) -> dict:
    """Coefficients of z^0..z^N of the package's q-series, each rounded
    once from 34 digits to complex128 (values below the double range
    round to zero):

        exp_q     1/[n]_q!        = (1-q)^n / (q;q)_n
        etilde_q  1/(q;q)_n
        big_e_q   q^{n(n-1)/2} / (q;q)_n
        sin_q     (-1)^{(n-1)/2} / [n]_q!  at odd n, 0 at even n
        cos_q     (-1)^{n/2} / [n]_q!      at even n, 0 at odd n
        phi_rs    prod (alpha;q)_n / prod (beta;q)_n
                  * ((-1)^n q^{n(n-1)/2})^{1+s-r} / (q;q)_n
    """
    mp = _mp()
    with mp.workdps(DPS):
        qm = mp.mpc(q)
        qq = pochhammer_ladder(qm, qm, N)
        ups = [pochhammer_ladder(a, qm, N) for a in alphas]
        downs = [pochhammer_ladder(b, qm, N) for b in betas]
        expo = 1 + len(betas) - len(alphas)
        one_minus_q = 1 - qm
        cols = {k: np.zeros(N + 1, dtype=np.complex128)
                for k in ("exp_q", "etilde_q", "big_e_q", "sin_q", "cos_q",
                          "phi_rs")}
        gauss = mp.mpc(1)  # q^{n(n-1)/2}
        qn = mp.mpc(1)  # q^n
        omq_n = mp.mpc(1)  # (1-q)^n
        for n in range(N + 1):
            inv_qq = 1 / qq[n]
            e_n = omq_n * inv_qq
            cols["exp_q"][n] = _round(e_n)
            cols["etilde_q"][n] = _round(inv_qq)
            cols["big_e_q"][n] = _round(gauss * inv_qq)
            if n % 2:
                cols["sin_q"][n] = _round(e_n if n % 4 == 1 else -e_n)
            else:
                cols["cos_q"][n] = _round(e_n if n % 4 == 0 else -e_n)
            t = inv_qq * ((-1) ** n * gauss) ** expo
            for up in ups:
                t *= up[n]
            for down in downs:
                t /= down[n]
            cols["phi_rs"][n] = _round(t)
            gauss *= qn
            qn *= qm
            omq_n *= one_minus_q
        return cols


def _round(x) -> complex:
    mp = _mp()
    re, im = mp.re(x), mp.im(x)
    return complex(_round_real(re), _round_real(im))


def _round_real(x) -> float:
    if x == 0 or abs(x) < 1e-320:
        return 0.0
    return float(x)


def max_rel_error(program: np.ndarray, reference: np.ndarray,
                  floor: float = 1e-300) -> float:
    """Largest |program - reference| / (|reference| + floor)."""
    program = np.asarray(program, dtype=np.complex128)
    n = min(program.size, reference.size)
    diff = np.abs(program[:n] - reference[:n])
    return float(np.max(diff / (np.abs(reference[:n]) + floor)))


# ---------------------------------------------------------------------------
# Zero lattices and counting sums
# ---------------------------------------------------------------------------


def lattice(kind: str, q: complex, rmax: float) -> list:
    """Zeros of the product forms with modulus <= rmax:

        etilde_q = prod_{n>=1} (1 - z/q^n)   zeros q^n,       n >= 1, |q| > 1
        E_q      = prod_{n>=0} (1 + q^n z)   zeros -q^{-n},   n >= 0, |q| < 1
    """
    q = complex(q)
    out = []
    if kind == "etilde":
        zn = q
        while abs(zn) <= rmax:
            out.append(zn)
            zn *= q
    elif kind == "bigE":
        zn = -1.0 + 0.0j
        while abs(zn) <= rmax:
            out.append(zn)
            zn /= q
    else:
        raise ValueError(kind)
    return out


def counting_sum(points, r: float, origin_mult: int = 0) -> float:
    """N(r) = n(0) log r + sum over 0 < |z| <= r of m log(r/|z|); points
    are locations or (location, multiplicity) pairs."""
    total = origin_mult * math.log(r)
    for p in points:
        z, m = (p if isinstance(p, tuple) else (p, 1))
        mod = abs(z)
        if 0.0 < mod <= r:
            total += m * math.log(r / mod)
    return total


def lattice_log_abs(kind: str, q: complex, zs: np.ndarray,
                    tol: float = 1e-17) -> np.ndarray:
    """log|f| of etilde_q or E_q at an array of points, summed factor by
    factor from the product form until the factors are within tol of 1."""
    zs = np.asarray(zs, dtype=np.complex128)
    q = complex(q)
    out = np.zeros(zs.shape)
    zmax = float(np.max(np.abs(zs)))
    if kind == "etilde":
        w = 1.0 / q
        while abs(w) * zmax >= tol:
            out += np.log(np.abs(1.0 - w * zs))
            w /= q
    elif kind == "bigE":
        w = 1.0 + 0.0j
        while abs(w) * zmax >= tol:
            out += np.log(np.abs(1.0 + w * zs))
            w *= q
    else:
        raise ValueError(kind)
    return out


def rational_log_abs(zeros, poles, lead: complex, zs: np.ndarray) -> np.ndarray:
    """log|f| of lead * prod (z - zeta) / prod (z - p) from its root lists."""
    zs = np.asarray(zs, dtype=np.complex128)
    out = np.full(zs.shape, math.log(abs(lead)))
    for z0 in zeros:
        out += np.log(np.abs(zs - z0))
    for p0 in poles:
        out -= np.log(np.abs(zs - p0))
    return out


def circle_log_plus_mean(log_abs, r: float, M: int) -> float:
    """Trapezoid mean of log+|f| over M equally spaced nodes of |z| = r;
    log_abs maps an array of points to log|f|."""
    zs = r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, M, endpoint=False))
    return float(np.mean(np.maximum(log_abs(zs), 0.0)))

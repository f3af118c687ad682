"""The real-q step of the lattice kernel's bulk phase.

For a real q, qspecial._log_abs_bulk builds each row t_{n+1} from t_n by
multiplying the float64 view of the rows: by 1/q for |q| > 1, where the
masked loop divides, np.divide(t, q), and by q for |q| < 1, where the
loop multiplies with _times(t, q). That keeps every output bit only
because numpy divides by a complex with a zero imaginary part by scaling
with exactly 1/q. A numpy build that divides otherwise must fail here,
loudly, rather than move log|f| by an ulp without notice.

Both steps must agree with the loop's on finite points with moduli from
1e-300 to 1e300, for |q| drawn from each of the six regimes of
test_lattice_arrays, up to the sign of a zero part (== compares finite
values bit for bit but for that sign, which |t| and |1 - t| ignore). A
purely imaginary q is not real: it keeps the complex step. For complex
q inside the unit circle the bulk rows must be _times' rows.

The bulk phase runs down to the cutoff itself: every row t_n, n < K, that
it sums without a mask must be live by the loop's own test |t_n| >=
cutoff, K must be the largest count its margin allows, and on a circle
the masked loop after it must run at most two steps.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.qcore import QParam
from jacksonq.qspecial import (
    BigEProduct,
    EtildeProduct,
    _bulk_steps,
    _log_abs_bulk,
    _times,
)
from test_lattice_arrays import (
    REGIME_PRODUCTS,
    REGIMES,
    circle,
    lattice_products,
    log_abs_ref,
)

POINTS = 4000


def spread(rng, size: int) -> np.ndarray:
    """size points with moduli log-uniform on 1e-300 .. 1e300, spread
    angles, and points on the axes, where a part is exactly zero."""
    z = (10.0 ** rng.uniform(-300.0, 300.0, size)
         * np.exp(2j * np.pi * rng.uniform(size=size)))
    z[:8] = [1e-300, -1e300, 1e-300j, -1e300j, 3.0, -2.5j, 1e150, 0.5e-150j]
    return z


def real_bases(rng):
    """Two moduli from each regime's |q| range, with both signs."""
    for (lo, hi), _ in REGIMES.values():
        for modulus in rng.uniform(lo, hi, 2):
            yield from (modulus, -modulus)


@pytest.mark.parametrize("q", list(real_bases(np.random.default_rng(2023))),
                         ids=lambda q: f"{q:.4g}")
def test_float_view_step_is_the_loop_step(q):
    t = spread(np.random.default_rng(1), POINTS)
    q = complex(q)
    got = np.empty_like(t)
    if abs(q) > 1.0:
        np.multiply(t.view(np.float64), 1.0 / q.real, out=got.view(np.float64))
        want = np.divide(t, q)
    else:
        np.multiply(t.view(np.float64), q.real, out=got.view(np.float64))
        want = _times(t, q)
    assert np.all(np.isfinite(want))
    assert np.array_equal(got, want)


# complex q inside the unit circle: the bulk forms _times' four products
# from the float view, the same operations
@pytest.mark.parametrize("q", list(real_bases(np.random.default_rng(2024)))
                         + [0.3 + 0.37j, -0.6 - 0.2j, 0.5j, 0.84j - 0.01],
                         ids=lambda q: f"{q:.4g}")
def test_bulk_rows_follow_the_loop_step(q):
    # a tolerance this small keeps points down to 1e-290 live for some
    # bulk steps, so the kernel's t_K comes from moduli over 580 decades
    q = complex(q)
    shrink = abs(q) > 1.0
    cutoff = 1e-300 * (1.0 - (1.0 / abs(q) if shrink else abs(q)))
    t = spread(np.random.default_rng(7), 2049)
    t = t[np.abs(t) >= 1e-290]
    mags = np.abs(t)
    ratio = 1.0 / abs(q) if shrink else abs(q)
    steps = _bulk_steps(mags, ratio, cutoff)
    assert steps > 0
    _, got = _log_abs_bulk(t, q, shrink, steps)
    want = t
    for _ in range(steps):
        want = np.divide(want, q) if shrink else _times(want, q)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [2j, -1.5j, 0.5j, -0.7j])
def test_imaginary_q_keeps_the_complex_step(q):
    # a zero real part is no real q: it divides and multiplies as complex
    qp = QParam(q)
    prod = EtildeProduct(qp) if abs(q) > 1.0 else BigEProduct(qp)
    zs = circle(30.0, 512)
    assert prod.log_abs(zs).tobytes() == log_abs_ref(prod, zs).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(prod=lattice_products(), exponent=st.floats(-300.0, 300.0),
       tol=st.sampled_from([1e-14, 1e-300]), scatter=st.booleans())
# one pinned example per regime of REGIMES, in its order
@example(prod=REGIME_PRODUCTS[0], exponent=300.0, tol=1e-300, scatter=True)
@example(prod=REGIME_PRODUCTS[1], exponent=1.0, tol=1e-14, scatter=False)
@example(prod=REGIME_PRODUCTS[2], exponent=4.0, tol=1e-14, scatter=False)
@example(prod=REGIME_PRODUCTS[3], exponent=-300.0, tol=1e-300, scatter=True)
@example(prod=REGIME_PRODUCTS[4], exponent=2.5, tol=1e-14, scatter=True)
@example(prod=REGIME_PRODUCTS[5], exponent=-120.0, tol=1e-300,
         scatter=False)
def test_bulk_rows_stay_live_down_to_the_cutoff(prod, exponent, tol,
                                                scatter):
    # t_0 on a 512-node circle of modulus 10^exponent, or scattered with
    # moduli from there up to 1e300; the rows are rebuilt by the loop's
    # own step, np.divide(t, q) or _times(t, q)
    q = prod.qp.q
    shrink = abs(q) > 1.0
    ratio = 1.0 / abs(q) if shrink else abs(q)
    cutoff = tol * (1.0 - ratio)
    lo = 10.0 ** exponent
    if scatter:
        rng = np.random.default_rng(11)
        t = (10.0 ** rng.uniform(exponent, 300.0, 257)
             * np.exp(2j * np.pi * rng.uniform(size=257)))
        t[0] = lo
    else:
        t = circle(lo, 512)
    mags = np.abs(t)
    steps = _bulk_steps(mags, ratio, cutoff)
    lo = float(mags.min())
    # K is the largest count with lo (ratio (1 - 1e-12))^K >= cutoff; the
    # power goes in two halves, which cannot underflow there
    margin = ratio * (1.0 - 1e-12)

    def floor_after(k):
        return lo * margin ** (k // 2) * margin ** (k - k // 2)
    assert steps == 0 or floor_after(steps) >= cutoff
    assert floor_after(steps + 1) < cutoff
    for _ in range(steps):
        assert np.abs(t).min() >= cutoff
        t = np.divide(t, q) if shrink else _times(t, q)
    live, masked = np.abs(t) >= cutoff, 0
    while live.any():
        masked += 1
        t = np.divide(t, q) if shrink else _times(t, q)
        live &= np.abs(t) >= cutoff
    if not scatter:
        assert masked <= 2

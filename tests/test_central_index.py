"""The central index nu(r) and maximum term mu(r) at every radius at once.

nevanlinna._central_indices builds log|c_n| + n log r for all radii as
one array. It must give, bit for bit, what a loop over the radii gives
with one row each (the reference below): the same nu, the same mu and
the same r, on exp_q, etilde_q and big_e_q series with real and complex
q. A grid that crosses the certified radius, or meets a central index
that is not interior, must raise what the loop raises first, with the
same message: the first bad radius in grid order decides. A coefficient
that is not finite raises DomainError at every radius.
"""

import math

import numpy as np
import pytest

from jacksonq.errors import DomainError, TruncationTooShort
from jacksonq.nevanlinna import (
    RadialGrid,
    WimanValironSample,
    _central_indices,
    _log_moduli,
    log_order_from_nu,
    max_term_central_index,
)
from jacksonq.qcore import QParam, TruncatedSeries
from jacksonq.qspecial import big_e_q, etilde_q, exp_q


def central_index_ref(f: TruncatedSeries, r: float) -> WimanValironSample:
    """mu(r) and nu(r) at one radius, one row at a time."""
    if f.past_radius(r):
        raise TruncationTooShort(f"radius {r:g} exceeds the certified "
                                 f"radius {f.safe_radius:g} of the series")
    log_c = _log_moduli(f)
    logs = log_c + np.arange(log_c.size) * math.log(r)
    best = float(np.max(logs))
    nu = int(np.flatnonzero(logs == best)[-1])
    if nu > 0 and 2 * nu >= f.order:
        raise TruncationTooShort(
            f"central index {nu} not interior to stored order {f.order}")
    mu = math.exp(best) if best < 700 else math.inf
    return WimanValironSample(r=r, mu=mu, nu=nu)


def outcome(fn):
    """The value of fn(), or the type and message of what it raises."""
    try:
        return fn()
    except TruncationTooShort as exc:
        return type(exc), str(exc)


def ramp_series() -> TruncatedSeries:
    """c_n = 10^n up to n = 35, then falling by 1e-3 a term, to n = 60:
    nu(r) = 35 is not interior for 0.1 < r < the certified radius 3.2."""
    n = np.arange(61)
    return TruncatedSeries(np.where(n <= 35, 10.0 ** np.minimum(n, 35),
                                    1e35 * 1e-3 ** (n - 35)))


SERIES = {
    "etilde_q q=2": lambda: etilde_q(QParam(2.0), 96),
    "etilde_q q=-1.7+0.9i": lambda: etilde_q(QParam(-1.7 + 0.9j), 96),
    "big_e_q q=0.5": lambda: big_e_q(QParam(0.5), 96),
    "big_e_q q=0.3+0.4i": lambda: big_e_q(QParam(0.3 + 0.4j), 96),
    "exp_q q=2": lambda: exp_q(QParam(2.0), 96),
    "exp_q q=0.8": lambda: exp_q(QParam(0.8), 60),
}


@pytest.mark.parametrize("make", SERIES.values(), ids=list(SERIES))
def test_every_radius_is_its_own_row(make):
    f = make()
    top = math.log10(f.safe_radius)
    radii = tuple(10.0 ** np.linspace(-3.0, top - 1e-3, 41))
    got = _central_indices(f, radii, _log_moduli(f))
    want = [central_index_ref(f, r) for r in radii]
    assert [(s.r, s.nu) for s in got] == [(s.r, s.nu) for s in want]
    assert (np.array([s.mu for s in got]).tobytes()
            == np.array([s.mu for s in want]).tobytes())
    assert [max_term_central_index(f, r) for r in radii[::10]] == want[::10]


@pytest.mark.parametrize("make, radii", [
    # a grid that crosses the certified radius of etilde_q, q = 2 (2e10)
    (SERIES["etilde_q q=2"], (1e2, 1e6, 1e10, 3e10, 1e12)),
    (SERIES["exp_q q=0.8"], (0.5, 1.0, 2.0, 4.0, 8.0)),
    # nu = 35 of order 60 at 0.2, before the radius 50 is past 3.2
    (ramp_series, (1e-3, 0.05, 0.2, 50.0)),
    (ramp_series, (1e-3, 50.0, 0.2)),
], ids=["etilde past", "exp_q past", "not interior first", "past first"])
def test_first_bad_radius_raises_as_the_loop_does(make, radii):
    f = make()

    def loop():
        return [central_index_ref(f, r) for r in radii]

    want = outcome(loop)
    assert isinstance(want, tuple)  # the loop raises somewhere
    assert outcome(lambda: _central_indices(f, radii, _log_moduli(f))) \
        == want
    if list(radii) == sorted(radii):
        grid = RadialGrid(radii)
        assert outcome(lambda: log_order_from_nu(f, grid)) == want



@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
def test_a_coefficient_that_is_not_finite_raises(bad):
    # a NaN read as an exact zero gave nu = 2, mu = 2.0 here, silently
    f = TruncatedSeries(np.array([1.0, bad, 0.5, 0.25, 0.1, 0.01, 0.001]))
    with pytest.raises(DomainError, match="not finite"):
        max_term_central_index(f, 2.0)
    with pytest.raises(DomainError, match="not finite"):
        log_order_from_nu(f, RadialGrid((1.5, 2.0)))

"""The circle means of log|f| and log+|f| from one circle's values.

nevanlinna._log_means takes each mean as np.add.reduce then a division,
which is np.mean bit for bit, and scans the circle for poles and zeros
only when the mean is not finite. It must keep what the scans before
every mean gave (the reference below): a pole (+inf or NaN) is reported
before a zero (-inf), and a finite circle whose sum overflows returns
np.mean's value with np.mean's warnings.
"""

import math
import warnings

import numpy as np
import pytest

from jacksonq.errors import PoleOnCircle
from jacksonq.nevanlinna import _log_means


def log_means_ref(la: np.ndarray, r: float, positive_part: bool):
    """_log_means with the pole and zero scans before every mean."""
    if np.any(np.isposinf(la)) or np.any(np.isnan(la)):
        raise PoleOnCircle(f"pole on quadrature circle r = {r:g}")
    vals = np.maximum(la, 0.0) if positive_part else la
    if not positive_part and np.any(np.isneginf(vals)):
        raise PoleOnCircle(f"zero on quadrature circle r = {r:g}")
    full = float(np.mean(vals))
    half = float(np.mean(vals[::2]))
    err = abs(full - half) + 16.0 * np.finfo(float).eps * (1.0 + abs(full))
    return full, err


def run(fn, la, positive_part):
    """(outcome, warning messages) of fn on one circle: the two means'
    bytes and the error estimate's type, or the refusal's message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            full, err = fn(la, 7.5, positive_part)
            out = np.array([full, err]).tobytes(), type(err)
        except PoleOnCircle as exc:
            out = str(exc)
    return out, [(w.category, str(w.message)) for w in caught]


def circle(*specials) -> np.ndarray:
    """512 finite values of log|f| with the given values at spread nodes."""
    la = np.random.default_rng(3).standard_normal(512)
    la[[7, 200, 401][:len(specials)]] = specials
    return la


@pytest.mark.parametrize("positive_part", [False, True])
@pytest.mark.parametrize("specials", [
    (), (-math.inf,), (math.inf,), (math.nan,),
    (-math.inf, math.inf), (math.inf, -math.inf), (-math.inf, math.nan),
    (math.nan, -math.inf, math.inf),
], ids=str)
def test_refusals_and_means_are_the_scans(specials, positive_part):
    la = circle(*specials)
    assert run(_log_means, la, positive_part) \
        == run(log_means_ref, la, positive_part)


@pytest.mark.parametrize("specials", [(-math.inf, math.inf),
                                      (math.nan, -math.inf)], ids=str)
def test_a_pole_is_reported_before_a_zero(specials):
    for positive_part in (False, True):
        with pytest.raises(PoleOnCircle, match="pole on quadrature circle"):
            _log_means(circle(*specials), 7.5, positive_part)


@pytest.mark.parametrize("la", [
    np.full(512, 1e306),  # the sum overflows to +inf
    np.tile([1e308, 1e308, -1e308, -1e308], 128),  # +inf and -inf: NaN
], ids=["+inf", "nan"])
@pytest.mark.parametrize("positive_part", [False, True])
def test_an_overflowing_sum_is_np_means(la, positive_part):
    got, caught = run(_log_means, la, positive_part)
    assert (got, caught) == run(log_means_ref, la, positive_part)
    vals = np.maximum(la, 0.0) if positive_part else la
    with np.errstate(all="ignore"):
        want = np.mean(vals)
    assert got[0][:8] == np.float64(want).tobytes()
    assert ("overflow encountered in reduce" in
            [message for _, message in caught])

"""Integration-by-parts integrands and grids of circles in array calls.

jackson_integral reads the integrand u(s w) D_q v(w) of two series
(qoperator._PartsIntegrand) with one array call of u and one of v per
run; the Jackson integral must keep the bits of the one-point form,
u.eval(s w) * dq_sample(v, w, qp), that the rules suite passed before,
including where the batch falls back to one point at a time.

nevanlinna._circle_means evaluates the circles of a grid through one
log_abs call per chunk of points; each radius must keep the bits of its
own circle (_circle_mean), and a failing circle must raise its own error
when the caller reaches its radius.
"""

import cmath
import warnings

import numpy as np
import pytest

from jacksonq import nevanlinna
from jacksonq.errors import (NonconvergentSample, OriginSingular,
                             OutsideSafeRadius, PoleOnCircle)
from jacksonq.nevanlinna import MeroModel, _circle_mean, _circle_means
from jacksonq.qcore import QParam, TruncatedSeries
from jacksonq.qode import RationalFunction
from jacksonq.qoperator import (_orbit_values, _PartsIntegrand, dq_sample,
                                jackson_integral)
from jacksonq.qspecial import (BigEProduct, EtildeProduct, exp_q, etilde_q,
                               product_solution)

QS = [0.5, 0.3, -0.6, 0.45 * cmath.exp(0.7j), 0.8 * cmath.exp(-2.1j)]


def one_point(u, v, qp, shifted):
    """The integrand as the rules suite wrote it, one point per call."""
    if shifted:
        return lambda w: u.eval(qp.q * w) * dq_sample(v, w, qp)
    return lambda w: u.eval(w) * dq_sample(v, w, qp)


def rand_poly(rng, deg, scale=1.0):
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    return TruncatedSeries.from_polynomial(scale * c)


def both(fn):
    """fn's value or (error type, message), and the warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = fn()
        except Exception as exc:  # compared between the two routes
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in seen]


def bits(z):
    return (complex(z).real.hex(), complex(z).imag.hex())


@pytest.mark.parametrize("q", QS, ids=[f"q{i}" for i in range(len(QS))])
@pytest.mark.parametrize("shifted", [False, True])
def test_parts_integral_keeps_one_point_bits(q, shifted, series_evals):
    qp = QParam(q)
    rng = np.random.default_rng(7411)
    for a, z in ((0.0, 1.0), (0.0, 0.7 - 1.1j), (0.4 - 0.3j, 2.5j)):
        u = rand_poly(rng, int(rng.integers(1, 6)))
        v = rand_poly(rng, int(rng.integers(1, 6)))
        new = jackson_integral(_PartsIntegrand(u, v, qp, shifted), a, z, qp,
                               tol=1e-13)
        assert not series_evals  # no series call of one point
        old = jackson_integral(one_point(u, v, qp, shifted), a, z, qp,
                               tol=1e-13)
        assert bits(new) == bits(old)
        series_evals.clear()


@pytest.mark.parametrize("shifted", [False, True])
def test_parts_values_on_a_run(shifted):
    qp = QParam(0.45 * cmath.exp(0.7j))
    rng = np.random.default_rng(7412)
    u, v = rand_poly(rng, 4), rand_poly(rng, 5)
    pts = [complex(p) for p in rng.standard_normal(30)
           + 1j * rng.standard_normal(30)]
    got = list(_orbit_values(_PartsIntegrand(u, v, qp, shifted), pts))
    want = [one_point(u, v, qp, shifted)(w) for w in pts]
    assert [bits(w) for w in got] == [bits(w) for w in want]


def test_parts_origin_falls_back_to_one_point():
    # a + q^j (z - a) is exactly 0 at j = 1, where D_q is undefined
    qp = QParam(0.5)
    rng = np.random.default_rng(7413)
    u, v = rand_poly(rng, 3), rand_poly(rng, 2)
    for shifted in (False, True):
        new = both(lambda: jackson_integral(_PartsIntegrand(u, v, qp, shifted),
                                            -1.0, 1.0, qp))
        old = both(lambda: jackson_integral(one_point(u, v, qp, shifted),
                                            -1.0, 1.0, qp))
        assert new == old
        assert new[0][0] is OriginSingular


def test_parts_overflow_falls_back_to_one_point():
    # v overflows at the far end of the run: the array call raises, the
    # integral reads one point at a time and stops on the first sample
    # that is not finite, with the one-point form's warnings
    qp = QParam(0.5)
    u = TruncatedSeries.from_polynomial([1.0, 2.0])
    v = TruncatedSeries.from_polynomial([0.0] * 30 + [1e300])
    for shifted in (False, True):
        new = both(lambda: jackson_integral(_PartsIntegrand(u, v, qp, shifted),
                                            0.0, 20.0, qp))
        old = both(lambda: jackson_integral(one_point(u, v, qp, shifted),
                                            0.0, 20.0, qp))
        assert new == old
        assert new[0][0] is NonconvergentSample


def models():
    rational = RationalFunction.from_roots([0.5, -1.5 + 2j, 30j],
                                           [2.5j, -40.0])
    return {
        "rational": MeroModel.from_rational(rational),
        "series": MeroModel.from_series(etilde_q(QParam(2.0), 48)),
        "E_q real q": MeroModel.from_product(BigEProduct(QParam(0.5))),
        "etilde real q": MeroModel.from_product(EtildeProduct(QParam(2.0))),
        "complex q < 1": MeroModel.from_product(
            product_solution([0.3 + 0.2j], QParam(0.4 + 0.3j))),
        "complex q > 1": MeroModel.from_product(
            EtildeProduct(QParam(2.1 * cmath.exp(0.6j)))),
    }


@pytest.mark.parametrize("name", sorted(models()))
@pytest.mark.parametrize("M", [256, 512, 1024])
def test_grid_rows_equal_single_circles(name, M):
    model = models()[name]
    radii = tuple(float(r) for r in np.geomspace(0.7, 1e3, 11))
    for positive in (True, False):
        got = list(_circle_means(model, radii, M, positive))
        want = [_circle_mean(model, r, M, positive) for r in radii]
        assert [(f.hex(), e.hex()) for f, e in got] \
            == [(f.hex(), e.hex()) for f, e in want]


def test_grid_takes_one_log_abs_call_per_chunk(monkeypatch):
    model = models()["rational"]
    calls = []
    real = nevanlinna.MeroModel.log_abs

    def counted(self, zs):
        calls.append(np.shape(zs))
        return real(self, zs)

    monkeypatch.setattr(nevanlinna.MeroModel, "log_abs", counted)
    list(_circle_means(model, tuple(range(1, 12)), 512, True))
    assert calls == [(8, 512), (3, 512)]


def test_later_pole_raises_at_its_radius():
    # a pole on the third circle: the first two radii give their means,
    # the third raises what its circle alone raises
    model = MeroModel.from_rational(RationalFunction.from_roots([0.5], [5.0]))
    radii = (2.0, 3.0, 5.0, 8.0)
    means = _circle_means(model, radii, 512, True)
    for r in radii[:2]:
        assert next(means) == _circle_mean(model, r, 512, True)
    with pytest.raises(PoleOnCircle, match=r"pole on quadrature circle "
                       r"r = 5$"):
        next(means)


def test_failing_chunk_reruns_one_radius_at_a_time(monkeypatch):
    # the series leaves its certified radius (about 0.96) on the third
    # circle, so the chunk raises and the radii run one by one
    model = MeroModel.from_series(exp_q(QParam(0.5), 40))
    radii = (0.3, 0.6, 5.0, 0.8)
    calls = []
    real = nevanlinna.MeroModel.log_abs

    def counted(self, zs):
        calls.append(np.shape(zs))
        return real(self, zs)

    monkeypatch.setattr(nevanlinna.MeroModel, "log_abs", counted)
    means = _circle_means(model, radii, 512, True)
    for r in radii[:2]:
        assert next(means) == _circle_mean(model, r, 512, True)
    with pytest.raises(OutsideSafeRadius) as err:
        next(means)
    with pytest.raises(OutsideSafeRadius) as alone:
        _circle_mean(model, 5.0, 512, True)
    assert str(err.value) == str(alone.value)
    assert calls[:4] == [(4, 512), (512,), (512,), (512,)]

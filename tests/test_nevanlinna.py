import dataclasses
import math

import numpy as np
import pytest

from jacksonq import checks, nevanlinna, polyroots
from jacksonq.checks import sft_test_set
from jacksonq.errors import (
    DomainError,
    InsufficientGrid,
    MultiplicityAmbiguous,
    PoleOnCircle,
    TargetUnsupported,
    TruncationTooShort,
)
from jacksonq.nevanlinna import (
    INF,
    CSV_HEADER,
    MeroModel,
    RadialGrid,
    characteristic,
    counting_N,
    defect_estimates,
    growth_lower_bound_check,
    jackson_truncated_counting,
    jensen_residual,
    log_order_from_T,
    log_order_from_counting,
    log_order_from_nu,
    logderiv_lemma_check,
    max_term_central_index,
    proximity,
    samples_to_csv,
    series_zero_moduli,
    sft_check,
    wiman_valiron_check,
    winding_number,
)
from jacksonq.qcore import QParam, TruncatedSeries
from jacksonq.qode import RationalFunction
from jacksonq.qspecial import BigEProduct, EtildeProduct, big_e_q, etilde_q

RNG = np.random.default_rng(90125)


def model_z() -> MeroModel:
    return MeroModel.from_rational(RationalFunction([0, 1]))


def big_e_model(qv=0.5, qp=None) -> MeroModel:
    return MeroModel.from_product(BigEProduct(qp or QParam(qv)))


def etilde_model(qv=2.0, qp=None) -> MeroModel:
    return MeroModel.from_product(EtildeProduct(qp or QParam(qv)))


class WeightedLattice:
    """f = prod_{n>=1} (1 - q^{-n} z)^n for |q| > 1, whose n-th zero q^n
    has multiplicity n: an entire product that is no LatticeProduct,
    summed one log per factor at each point. No shift ratio is known."""

    shift_ratio = None

    def __init__(self, qp: QParam):
        self.qp = qp

    def log_eval(self, z) -> complex:
        q = self.qp.q
        out = 0.0 + 0.0j
        n = 1
        while True:
            w = z * q ** (-n)
            if n * abs(w) < 1e-15 and abs(w) < 0.5:
                break
            out += n * np.log(1.0 - w)
            n += 1
        return complex(out)

    def eval(self, z):
        return np.exp(self.log_eval(z))

    def log_abs(self, zs) -> np.ndarray:
        return np.array([self.log_eval(z).real for z in np.ravel(zs)]
                        ).reshape(np.shape(zs))

    def zeros_up_to(self, R):
        q = self.qp.q
        out = []
        n = 1
        while abs(q) ** n <= R:
            out.append((q**n, n))
            n += 1
        return out


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialGrid((1.0, 0.5))
        with pytest.raises(DomainError):
            RadialGrid((1.0, 2.0), angular_nodes=16)

    @pytest.mark.parametrize("radii", [(1.0, math.inf), (math.nan,),
                                       (0.0, 1.0), (-math.inf, 1.0)])
    def test_refuses_radii_not_positive_and_finite(self, radii):
        # r <= 0 is False for NaN, so the test is 0 < r < inf
        with pytest.raises(DomainError, match="positive and finite"):
            RadialGrid(radii)

    def test_log_spaced_and_nudging(self):
        g = RadialGrid.log_spaced(1.0, 100.0, 5)
        assert len(g.radii) == 5
        g2 = RadialGrid((2.0, 10.0)).avoiding([2.0 * (1 + 1e-8)])
        assert abs(g2.radii[0] / 2.0 - 1.0) > 1e-6
        assert g2.radii[1] == 10.0

    @pytest.mark.parametrize("rmin, rmax", [(0.0, 10.0), (-1.0, 10.0),
                                            (1.0, math.inf),
                                            (math.nan, 10.0)])
    def test_log_spaced_refuses_bounds_as_the_constructor_does(self, rmin,
                                                                rmax):
        with pytest.raises(DomainError, match="positive and finite"):
            RadialGrid.log_spaced(rmin, rmax, 5)

    def test_nudging_gives_up_loudly(self):
        # every nudge lands on the next modulus: 64 nudges clear 64
        # moduli, and a 65th modulus is one too many
        moduli = [(1 + 1e-5) ** k for k in range(80)]
        clear = RadialGrid((1.0,), 64).avoiding(moduli[:64])
        assert all(abs(clear.radii[0] / m - 1.0) > 1e-6 for m in moduli[:64])
        for count in (65, 80):
            with pytest.raises(InsufficientGrid):
                RadialGrid((1.0,), 64).avoiding(moduli[:count])


@pytest.mark.parametrize("functional", [proximity, characteristic,
                                        jensen_residual])
@pytest.mark.parametrize("model", [etilde_model, big_e_model, model_z],
                         ids=["etilde_q", "E_q", "z"])
@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_circle_at_a_radius_not_finite_is_refused(functional, model, r):
    # r = inf puts NaN and infinite nodes on the circle: summed, they
    # would give a product m = 0, T = 0 and a NaN Jensen residual, and z
    # a pole on the circle after a RuntimeWarning
    with pytest.raises(DomainError, match="not finite"):
        functional(model(), r, 512)


def sampler_model() -> MeroModel:
    return MeroModel.from_sampler(lambda z: 1.0 + z, entire=True)


@pytest.mark.parametrize("model", [etilde_model, big_e_model, model_z,
                                   sampler_model],
                         ids=["etilde_q", "E_q", "z", "sampler"])
@pytest.mark.parametrize("r", [math.inf, math.nan])
@pytest.mark.parametrize("target", [0.0, INF])
def test_count_at_a_radius_not_finite_is_refused(model, r, target):
    # the zero walk of etilde_q used to list (inf, 1) twice at r = inf,
    # and counting_N summed it to NaN, as it did on z
    with pytest.raises(DomainError, match="not finite"):
        model().divisor(r, target)
    with pytest.raises(DomainError, match="not finite"):
        counting_N(model(), r, target)


@pytest.mark.parametrize("prod", [EtildeProduct(QParam(2.0)),
                                  BigEProduct(QParam(0.5))])
@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_zero_walk_to_a_radius_not_finite_is_refused(prod, r):
    with pytest.raises(DomainError, match="not finite"):
        prod.zeros_up_to(r)


def rational_model() -> MeroModel:
    # (z - 0.5)/(z + 2): a zero and a pole off the origin
    return MeroModel.from_rational(RationalFunction([-0.5, 1.0], [2.0, 1.0]))


def on_model(call, model):
    """call(model(), r) as a function of r alone."""
    return lambda r: call(model(), r)


# every entry point that takes a radius, on a product and a rational model
RADIUS_ENTRY_POINTS = {
    f"{name} {label}": on_model(call, model)
    for label, model in (("etilde_q", etilde_model),
                         ("rational", rational_model))
    for name, call in (
        ("counting_N", lambda m, r: counting_N(m, r)),
        ("counting_N inf", lambda m, r: counting_N(m, r, INF)),
        ("divisor", lambda m, r: m.divisor(r, 0.0)),
        ("proximity", lambda m, r: proximity(m, r, 512)),
        ("characteristic", lambda m, r: characteristic(m, r, 512)),
        ("jensen_residual", lambda m, r: jensen_residual(m, r, 512)),
    )
}
RADIUS_ENTRY_POINTS["max_term_central_index"] = (
    lambda r: max_term_central_index(etilde_q(QParam(2.0), 40), r))


@pytest.mark.parametrize("call", RADIUS_ENTRY_POINTS.values(),
                         ids=list(RADIUS_ENTRY_POINTS))
@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_radius_not_finite_and_positive_is_refused(call, r):
    # unchecked, r = 0 and r = -1 reach math.log's bare ValueError (and
    # proximity at -3 quietly returns m(3)), and the central index at NaN
    # an IndexError
    with pytest.raises(DomainError, match=f"radius r = {r:g} is not"):
        call(r)


class TestProximity:
    def test_f_equals_z(self):
        m = proximity(model_z(), 10.0, M=512)
        assert abs(m - math.log(10.0)) < 1e-10
        assert proximity(model_z(), 0.5, M=512) == 0.0

    def test_rational_against_adaptive_quadrature(self):
        # independent oracle: scipy adaptive quadrature of log+|f|
        from scipy.integrate import quad

        f = RationalFunction([-1, 1], [1, 1])  # (z-1)/(z+1)
        model = MeroModel.from_rational(f)
        r = 5.0

        def integrand(th):
            z = r * np.exp(1j * th)
            return max(0.0, math.log(abs((z - 1) / (z + 1))))

        oracle, _ = quad(integrand, 0.0, 2 * np.pi, limit=400)
        oracle /= 2 * np.pi
        assert abs(proximity(model, r, M=4096) - oracle) < 1e-6

    def test_error_estimate_covers_doubling(self):
        for _ in range(10):
            zeros = RNG.uniform(0.3, 3.0, 3) * np.exp(
                1j * RNG.uniform(0, 2 * np.pi, 3))
            poles = RNG.uniform(0.3, 3.0, 2) * np.exp(
                1j * RNG.uniform(0, 2 * np.pi, 2))
            model = MeroModel.from_rational(
                RationalFunction.from_roots(list(zeros), list(poles)))
            r = 5.1234
            s = characteristic(model, r, M=256)
            m1, err = s.m, s.quad_err
            m2 = proximity(model, r, M=512)
            assert abs(m2 - m1) <= err

    def test_pole_on_circle(self):
        f = RationalFunction([1], [-2.0, 1])  # 1/(z-2)
        model = MeroModel.from_rational(f)
        with pytest.raises(PoleOnCircle):
            # node at angle 0 lands exactly on the pole
            proximity(model, 2.0, M=512)

    @pytest.mark.parametrize("M", [1, 2, 512, 1024, 4096])
    def test_kept_unit_circle_gives_the_same_nodes(self, M):
        unit = nevanlinna._unit_circle(M)
        assert unit is nevanlinna._unit_circle(M)
        assert not unit.flags.writeable
        th = np.linspace(0.0, 2.0 * np.pi, M, endpoint=False)
        for r in (1e-2, 1.0, 10.5, 3e5, 1e8):
            assert (r * unit).tobytes() == (r * np.exp(1j * th)).tobytes()


class TestModelShapes:
    """Every shape answers the same questions; a divisor is (origin
    multiplicity, [(modulus, multiplicity)])."""

    def test_product_divisor_is_the_lattice(self):
        origin, rest = big_e_model().divisor(10.0)
        assert origin == 0
        assert rest == [(1.0, 1), (2.0, 1), (4.0, 1), (8.0, 1)]
        assert big_e_model().known_moduli(10.0) == [1.0, 2.0, 4.0, 8.0]

    def test_series_divisor_peels_the_origin(self):
        # z^2 (3 - z): a double zero at the origin, a simple one at 3
        model = MeroModel.from_series(
            TruncatedSeries.from_polynomial([0.0, 0.0, 3.0, -1.0]))
        origin, rest = model.divisor(10.0)
        assert origin == 2 and len(rest) == 1
        assert rest[0][0] == pytest.approx(3.0, rel=1e-14) and rest[0][1] == 1
        assert model.known_moduli(10.0) == [rest[0][0]]
        assert model.origin_leading() == (2, 3.0)
        # zeros are known by modulus only, and infinity holds no points
        assert type(rest[0][0]) is float
        assert model.divisor(10.0, INF) == (0, [])
        with pytest.raises(TargetUnsupported):
            model.divisor(10.0, 1.0)

    def test_rational_divisor_of_any_target(self):
        # f - 1 = -2/(z + 1) for f = (z - 1)/(z + 1): no finite a-points
        model = MeroModel.from_rational(RationalFunction([-1, 1], [1, 1]))
        assert model.divisor(5.0, 0.0) == (0, [(1.0, 1)])
        assert model.divisor(5.0, 1.0) == (0, [])
        assert model.divisor(5.0, INF) == (0, [(1.0, 1)])

    def test_sampler_knows_no_divisor(self):
        model = MeroModel.from_sampler(lambda z: 1.0 + z, entire=True)
        # declared entire: no poles, and nothing else is known
        assert model.known_moduli(10.0) == []
        assert model.divisor(10.0, INF) == (0, [])
        for call in (lambda: model.divisor(10.0), model.origin_leading,
                     lambda: model.divisor(10.0, 1.0)):
            with pytest.raises(TargetUnsupported):
                call()
        with pytest.raises(TargetUnsupported):
            MeroModel.from_sampler(lambda z: z).divisor(1.0, INF)

    @pytest.mark.parametrize("model", [
        MeroModel.from_series(TruncatedSeries.from_polynomial([1.0, -0.5])),
        big_e_model(),
        MeroModel.from_sampler(lambda z: 1.0 + z, entire=True),
    ], ids=["series", "product", "sampler"])
    def test_entire_pole_count_is_positive_zero(self, model):
        # 0 * log r would be -0.0 inside the unit circle
        n_inf = counting_N(model, 0.5, INF)
        assert n_inf == 0.0 and math.copysign(1.0, n_inf) == 1.0

    @pytest.mark.parametrize("make", [
        lambda qp: MeroModel.from_series(
            TruncatedSeries.from_polynomial([1.0, -0.5, 0.25]), qp),
        lambda qp: big_e_model(qp=qp),
        lambda qp: MeroModel.from_sampler(lambda z: 1.0 + z,
                                          entire=True, qp=qp),
    ], ids=["series", "product", "sampler"])
    def test_only_rational_models_have_jackson_weights(self, make):
        qp = QParam(0.5)
        model = make(qp)
        with pytest.raises(TargetUnsupported):
            jackson_truncated_counting(model, 3.0, 0.0, qp)
        with pytest.raises(TargetUnsupported):
            sft_check(model, [0.0, 1.0, INF], qp, RadialGrid((3.0, 5.0), 64))
        sample = characteristic(model, 3.0, 64)
        assert math.isnan(sample.nJ0) and math.isnan(sample.nJinf)
        assert math.isfinite(sample.T)


class TestCountingN:
    def test_f_z_at_e(self):
        assert counting_N(model_z(), math.e, 0.0) == pytest.approx(1.0)

    def test_big_e_lattice_by_hand(self):
        # zeros of prod(1 + q^n z) at -1, -2, -4, -8 inside r = 10 (q = 1/2):
        # N = log 10 + log 5 + log 2.5 + log 1.25
        model = big_e_model()
        expect = math.log(10) + math.log(5) + math.log(2.5) + math.log(1.25)
        assert counting_N(model, 10.0, 0.0) == pytest.approx(expect, abs=1e-12)

    def test_rational_pole(self):
        f = RationalFunction([-1, 1], [1, 1])
        assert counting_N(MeroModel.from_rational(f), 2.0, INF) == (
            pytest.approx(math.log(2.0)))

    def test_entire_has_no_poles(self):
        assert counting_N(big_e_model(), 50.0, INF) == 0.0

    def test_series_target_unsupported(self):
        m = MeroModel.from_series(etilde_q(QParam(2.0), 40))
        with pytest.raises(TargetUnsupported):
            counting_N(m, 3.0, 1.0)


class TestWindingCounts:
    def test_winding_matches_lattice_counts(self):
        # argument-principle counts on the series equal lattice counts
        qp = QParam(2.0)
        ts = etilde_q(qp, 48)
        prod = EtildeProduct(qp)
        for r in (3.0, 10.0, 100.0):
            w = winding_number(
                lambda M: ts.eval(r * nevanlinna._unit_circle(M)), r)
            lattice = sum(m for _, m in prod.zeros_up_to(r))
            assert w == lattice

    def test_series_zero_moduli_locate_lattice(self):
        qp = QParam(2.0)
        ts = etilde_q(qp, 48)
        mods = series_zero_moduli(ts, 10.0)
        found = sorted(m for m, _ in mods)
        assert len(found) == 3
        for got, want in zip(found, [2.0, 4.0, 8.0]):
            assert abs(got / want - 1.0) < 1e-4

    def test_series_counting_close_to_lattice_counting(self):
        qp = QParam(2.0)
        ts = etilde_q(qp, 48)
        n_series = counting_N(MeroModel.from_series(ts), 10.0, 0.0)
        n_lattice = counting_N(etilde_model(), 10.0, 0.0)
        assert abs(n_series - n_lattice) < 1e-3


class TestCharacteristic:
    def test_f_z(self):
        s = characteristic(model_z(), 10.0, M=512)
        assert s.T == pytest.approx(math.log(10.0), abs=1e-10)
        assert s.Ninf == 0.0

    def test_polynomial_T_over_dlogr(self):
        # T/(d log r) -> 1 for polynomials at large radii
        f = RationalFunction([1.0, 0.2, 0.0, 1.0])  # degree 3
        model = MeroModel.from_rational(f)
        r = 1e3
        s = characteristic(model, r, M=1024)
        assert abs(s.T / (3 * math.log(r)) - 1.0) < 0.05

    def test_etilde_series_inside_disc(self):
        qp = QParam(2.0)
        m = MeroModel.from_series(etilde_q(qp, 48))
        s = characteristic(m, 1.0, M=512)
        assert s.T == pytest.approx(s.m)
        assert math.isfinite(s.T)

    def test_invariant_T_equals_m_plus_Ninf(self):
        f = RationalFunction.from_roots([0.5, -1.5], [2.5j])
        s = characteristic(MeroModel.from_rational(f), 7.0, M=1024)
        assert s.T == pytest.approx(s.m + s.Ninf)

    @pytest.mark.parametrize("model", [
        MeroModel.from_rational(RationalFunction.from_roots([0.5, -1.5],
                                                            [2.5j]),
                                QParam(0.5)),
        MeroModel.from_series(etilde_q(QParam(2.0), 48), QParam(2.0)),
        big_e_model(),
        MeroModel.from_sampler(lambda z: 1.0 + z * z, entire=True),
    ], ids=["rational", "series", "product", "sampler"])
    def test_T_alone_is_characteristics_T(self, model):
        # the checks that read T alone take it without N0 or nJ columns,
        # a grid's circles in one log_abs call
        radii = (0.7, 7.0, 1.5e3)
        got = nevanlinna._characteristic_Ts(model, radii, 512)
        for r, T in zip(radii, got):
            assert T.hex() == characteristic(model, r, 512).T.hex()

    def test_T_readers_count_no_jackson_weights(self, monkeypatch):
        qp = QParam(0.5)
        f = RationalFunction.from_roots([0.5, -1.5], [2.5j])
        model = MeroModel.from_rational(f, qp)
        grid = RadialGrid.log_spaced(10.0, 1e3, 6, angular_nodes=256)
        calls = []
        real = nevanlinna.jackson_truncated_counting

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(nevanlinna, "jackson_truncated_counting", counted)
        logderiv_lemma_check(model, qp, 1, grid)
        assert calls == []
        defect_estimates(model, grid, [0.0, 1.0])
        assert calls == [0.0] * 6 + [1.0] * 6


class TestJensen:
    def test_z_minus_2_at_r1(self):
        model = MeroModel.from_rational(RationalFunction([-2, 1]))
        assert jensen_residual(model, 1.0, M=512) < 1e-10

    def test_rational_with_zeros_and_pole(self):
        num = np.convolve([-1, 1], [-3, 1])  # (z-1)(z-3)
        model = MeroModel.from_rational(RationalFunction(num, [2, 1]))
        assert jensen_residual(model, 5.0, M=4096) < 1e-6

    def test_big_e_product_jensen(self):
        model = big_e_model()
        assert jensen_residual(model, 10.0, M=4096) < 1e-5

    def test_origin_zero_handled_by_leading_term(self):
        # f = z^2 (z - 2): lam = 2, c_lam = -2
        model = MeroModel.from_rational(
            RationalFunction(np.convolve([0, 0, 1], [-2, 1])))
        assert jensen_residual(model, 1.5, M=2048) < 1e-9


class TestJacksonCounting:
    def test_monomial_square_at_zero(self):
        # f = z^2, a = 0: h = 2, D_q f = [2]_q z has k' = 1 there
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([0, 0, 1]), qp)
        nt, Nt = jackson_truncated_counting(model, 5.0, 0.0, qp)
        assert nt == 1.0
        assert Nt == pytest.approx(math.log(5.0))

    def test_monomial_claim_holds_at_total_ramification(self):
        # z^d + c is totally ramified over c: single point, weight 1
        qp = QParam(0.5)
        coeffs = np.zeros(6)
        coeffs[0], coeffs[5] = 1.5, 1.0
        model = MeroModel.from_rational(RationalFunction(coeffs), qp)
        nt, _ = jackson_truncated_counting(model, 10.0, 1.5, qp)
        assert nt == 1.0

    def test_generic_simple_points_full_count(self):
        # simple a-points away from zeros of D_q f count fully
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([0, 0, 1]), qp)
        nt, _ = jackson_truncated_counting(model, 5.0, 4.0, qp)
        assert nt == 2.0  # both square roots of 4

    def test_bounded_by_full_counting(self):
        qp = QParam(0.5)
        for _ in range(8):
            zeros = list(RNG.uniform(0.3, 2.0, 3) * np.exp(
                1j * RNG.uniform(0, 2 * np.pi, 3)))
            poles = list(RNG.uniform(0.3, 2.0, 2) * np.exp(
                1j * RNG.uniform(0, 2 * np.pi, 2)))
            f = RationalFunction.from_roots(zeros, poles)
            model = MeroModel.from_rational(f, qp)
            for a in (0.0, 1.0, -1.0, INF):
                r = 50.0
                nt, Nt = jackson_truncated_counting(model, r, a, qp)
                if a == INF:
                    n_full = sum(m for z, m in f.poles() if abs(z) < r)
                    N_full = counting_N(model, r, INF)
                else:
                    g = f if a == 0 else f.subtract_const(a)
                    n_full = sum(m for z, m in g.zeros() if abs(z) < r)
                    N_full = counting_N(model, r, a)
                assert 0.0 <= nt <= n_full + 1e-12
                assert Nt <= N_full + 1e-9

    def test_edge_of_tolerance_clusters_rejected(self):
        # zeros separated by ~2x the clustering tolerance: neither clearly
        # simple nor clearly double
        from jacksonq.errors import MultiplicityAmbiguous

        qp = QParam(2.0)
        sep = 2e-7
        num = np.convolve([-1.0, 1.0], [-(1.0 + sep), 1.0])
        model = MeroModel.from_rational(RationalFunction(num), qp)
        with pytest.raises(MultiplicityAmbiguous):
            jackson_truncated_counting(model, 5.0, 0.0, qp)

    def test_origin_entry_is_not_in_the_band_test(self):
        # f = z (z - 2e-7) at q = 4: the origin is exact, so its 2e-7 gap
        # to the other zero is not a clustering question, and the q-image
        # 8e-7 is far from both zeros; the two simple zeros count fully
        qp = QParam(4.0)
        model = MeroModel.from_rational(RationalFunction([0.0, -2e-7, 1.0]), qp)
        assert model.rational.zeros()[0] == (0j, 1)
        nt, _ = jackson_truncated_counting(model, 5.0, 0.0, qp)
        assert nt == 2.0
        with pytest.raises(MultiplicityAmbiguous):
            polyroots.check_unambiguous(model.rational.zeros())

    def test_zeros_near_a_zero_of_dq_f_keep_their_weight(self):
        # f = z (z - 1e-6) at q = 2: D_q f = 3z - 1e-6 vanishes 3.3e-7
        # from both zeros, yet at neither; both are simple and count
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([0.0, -1e-6, 1.0]), qp)
        nt, _ = jackson_truncated_counting(model, 5.0, 0.0, qp)
        assert nt == 2.0

    def test_q_image_in_the_band_is_refused(self):
        # f = z (z - 2e-7) at q = 2: the image 4e-7 sits 2e-7 from the
        # zero 2e-7, inside (1e-7, 3e-7), so h' depends on the tolerance
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([0.0, -2e-7, 1.0]), qp)
        with pytest.raises(MultiplicityAmbiguous, match="q-image"):
            jackson_truncated_counting(model, 5.0, 0.0, qp)

    @pytest.mark.parametrize("roots, q", [
        ([10.0, 5e-7], 2.0), ([5e-8], 2.0), ([1e-4], 1.001)],
        ids=["beside_10", "alone", "q_near_1"])
    def test_entry_is_never_its_own_q_image(self, roots, q):
        # q z0 != z0, yet it lies within 3 tol of z0 (tol = 1e-7 at scale
        # max(1, max |z|)); a root at q z0 would have merged with z0, so
        # the weight is refused rather than read as h' = h, weight 0
        qp = QParam(q)
        model = MeroModel.from_rational(
            RationalFunction(np.poly(roots)[::-1]), qp)
        with pytest.raises(MultiplicityAmbiguous, match="q-image"):
            jackson_truncated_counting(model, 20.0, 0.0, qp)

    def test_ambiguous_weights_leave_nj_nan_and_t_answered(self):
        # characteristic still answers where the weights refuse: T is the
        # T of the same f without a QParam, bit for bit; the Jackson
        # functionals themselves still refuse
        qp = QParam(2.0)
        f = RationalFunction([0.0, -2e-7, 1.0])
        model = MeroModel.from_rational(f, qp)
        sample = characteristic(model, 5.0)
        assert sample.T == characteristic(MeroModel.from_rational(f), 5.0).T
        assert math.isnan(sample.nJ0) and math.isnan(sample.nJinf)
        grid = RadialGrid((3.0, 5.0), 64)
        with pytest.raises(MultiplicityAmbiguous):
            sft_check(model, [0.0, 1.0, INF], qp, grid)
        with pytest.raises(MultiplicityAmbiguous):
            defect_estimates(model, grid, [0.0])

    def test_small_low_coefficient_is_not_an_origin_root(self):
        # 1/(1 + 1e13 z^20): den(0) = 1 is far below 1e-13 of the largest
        # coefficient, yet the 20 poles sit at modulus 1e-13^(1/20)
        model = MeroModel.from_rational(
            RationalFunction([1.0], [1.0] + [0.0] * 19 + [1e13]), QParam(2.0))
        rho = 1e-13 ** (1 / 20)
        origin, rest = model.divisor(1.0, INF)
        assert origin == 0 and len(rest) == 20
        assert all(m == pytest.approx(rho, rel=1e-12) for m, _ in rest)
        assert counting_N(model, 1.0, INF) == pytest.approx(
            -20 * math.log(rho), rel=1e-12)

    def test_pole_counting_reduced_by_reciprocal_derivative(self):
        qp = QParam(2.0)
        # f = 1/z^2: pole of order 2 at 0; D_q(1/f) = D_q z^2 = [2] z has a
        # simple zero there, so the truncated weight is 2 - 1 = 1
        model = MeroModel.from_rational(RationalFunction([1], [0, 0, 1]), qp)
        nt, Nt = jackson_truncated_counting(model, 4.0, INF, qp)
        assert nt == 1.0
        assert Nt == pytest.approx(math.log(4.0))


class TestDivisorReuse:
    """A rational model finds its divisor once and re-sums it per radius;
    every value must equal, bit for bit, the one a fresh model gives."""

    TARGETS = (0.0, 1.0, -1.0, INF)

    @pytest.mark.parametrize("seed", [20240501, 7])
    def test_kept_divisor_matches_fresh_model(self, seed):
        qp = QParam(0.5)
        radii = (0.7, 1.3) + RadialGrid.log_spaced(10.0, 1e4, 4).radii
        for f in sft_test_set(seed):
            kept = MeroModel.from_rational(f, qp)

            def fresh():
                return MeroModel.from_rational(f, qp)

            for r in radii:
                for a in self.TARGETS:
                    assert counting_N(kept, r, a) == counting_N(fresh(), r, a)
                    assert (jackson_truncated_counting(kept, r, a, qp)
                            == jackson_truncated_counting(fresh(), r, a, qp))
                assert (dataclasses.astuple(characteristic(kept, r, 256))
                        == dataclasses.astuple(characteristic(fresh(), r, 256)))

    def test_root_solves_do_not_grow_with_the_grid(self, root_solves):
        qp = QParam(0.5)
        counts = []
        for points in (3, 7):
            root_solves.clear()
            model = MeroModel.from_rational(sft_test_set(20240501)[0], qp)
            grid = RadialGrid.log_spaced(10.0, 1e4, points, angular_nodes=256)
            sft_check(model, list(self.TARGETS), qp, grid)
            counts.append(len(root_solves))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("suite, most", [
        (checks.run_sft, 60), (checks.run_defects, 10),
        (checks.run_logderiv, 6), (checks.run_jensen, 0)])
    def test_suite_root_solve_counts(self, root_solves, suite, most):
        # a from_roots model's attached lists serve target 0 and the
        # poles, f - a is built uncancelled and the Jackson weights read
        # the q-images in those lists: what is left are the solves of
        # each f - a and of the two sides of the N_J term's D_q f (and,
        # for logderiv, of its exact D_q f / f)
        suite(seed=911)
        assert len(root_solves) <= most

    def test_attached_zeros_are_the_count(self, root_solves):
        zeros = [0.0, 0.0, 0.4 - 1.1j, 0.4 - 1.1j, 2.5, -3.0j]
        f = RationalFunction.from_roots(zeros, [1.7 + 0.2j, -0.9])
        model = MeroModel.from_rational(f)
        attached = [(0j, 2), (0.4 - 1.1j, 2), (2.5, 1), (-3.0j, 1)]
        assert f.zeros() == attached
        for r in (0.5, 1.5, 2.7, 4.0):
            want = 2 * math.log(r)
            for z, m in attached[1:]:
                if abs(z) <= r:
                    want += m * math.log(r / abs(z))
            assert counting_N(model, r, 0.0) == want
        assert root_solves == []

    def test_sft_builds_dq_f_once(self, monkeypatch):
        # D_q f is built once per QParam, for the N_J term only: the
        # Jackson weights of every target, infinity too, build none
        calls = []
        real = nevanlinna.dq_rational

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(nevanlinna, "dq_rational", counted)
        qp = QParam(0.5)
        model = MeroModel.from_rational(sft_test_set(20240501)[0], qp)
        grid = RadialGrid.log_spaced(10.0, 1e4, 3, angular_nodes=256)
        for _ in range(2):
            sft_check(model, list(self.TARGETS), qp, grid)
        assert len(calls) == 1

    def test_ambiguous_a_points_raise_on_every_call(self):
        # f - 1 has zeros 2e-7 apart, at the edge of the merging tolerance
        qp = QParam(2.0)
        num = np.convolve([-1.0, 1.0], [-(1.0 + 2e-7), 1.0])
        num[0] += 1.0
        model = MeroModel.from_rational(RationalFunction(num), qp)
        for r in (5.0, 5.0, 50.0):
            with pytest.raises(MultiplicityAmbiguous):
                jackson_truncated_counting(model, r, 1.0, qp)
        # the lenient count of the same target is kept; the strict
        # bookkeeping still refuses afterwards
        assert counting_N(model, 5.0, 1.0) == pytest.approx(2 * math.log(5.0))
        with pytest.raises(MultiplicityAmbiguous):
            jackson_truncated_counting(model, 5.0, 1.0, qp)

    def test_constant_model_raises_on_every_call(self):
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([2.0]), qp)
        for target in (0.0, 0.0, INF, 2.0):
            with pytest.raises(DomainError):
                jackson_truncated_counting(model, 5.0, target, qp)

    def test_constant_model_characteristic_has_nan_jackson_columns(self):
        # T(r) of a constant is defined; only the Jackson weights are not.
        # The counting functions built on the weights keep refusing.
        qp = QParam(2.0)
        rf = RationalFunction([2.0])
        grid = RadialGrid((3.0, 5.0), 64)
        plain = characteristic(MeroModel.from_rational(rf), 5.0)
        model = MeroModel.from_rational(rf, qp)
        sample = characteristic(model, 5.0)
        assert sample.T == pytest.approx(math.log(2.0))
        assert dataclasses.astuple(sample)[:5] == dataclasses.astuple(
            plain)[:5]
        assert math.isnan(sample.nJ0) and math.isnan(sample.nJinf)
        with pytest.raises(DomainError):
            sft_check(model, [0.0, 1.0, INF], qp, grid)
        with pytest.raises(DomainError):
            defect_estimates(model, grid, [0.0, INF])


class TestDefects:
    def grid(self):
        return RadialGrid.log_spaced(10.0, 1e4, 8, angular_nodes=512)

    def test_polynomial_delta_infinity(self):
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([1.0, 0, 1.0]), qp)
        reports = defect_estimates(model, self.grid(), [INF])
        assert reports[0].delta == pytest.approx(1.0)

    def test_f_z_delta_zero(self):
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([0, 1]), qp)
        rep = defect_estimates(model, self.grid(), [0.0])[0]
        assert abs(rep.delta) < 0.05

    def test_theta_sum_rational(self):
        qp = QParam(2.0)
        f = RationalFunction.from_roots([0.5, -0.8j], [1.2, -0.4])
        model = MeroModel.from_rational(f, qp)
        reports = defect_estimates(model, self.grid(), [0.0, 1.0, -1.0, INF])
        total = sum(r.theta_J for r in reports)
        assert total <= 2.1


class TestLogOrders:
    def test_polynomial_T_estimator(self):
        model = MeroModel.from_rational(RationalFunction([1.0, 0, 0, 2.0]))
        grid = RadialGrid.log_spaced(1e2, 1e6, 8, angular_nodes=256)
        samples = [characteristic(model, r, 256) for r in grid.radii]
        est = log_order_from_T(samples)
        assert abs(est.value - 1.0) < 0.1

    def test_etilde_nu_estimator(self):
        qp = QParam(2.0)
        f = etilde_q(qp, 72)
        grid = RadialGrid.log_spaced(1e2, 1e6, 9)
        est = log_order_from_nu(f, grid)
        assert abs(est.value - 2.0) < 0.2

    def test_big_e_counting_estimator(self):
        model = big_e_model()
        grid = RadialGrid.log_spaced(1e2, 1e6, 9)
        est = log_order_from_counting(model, grid, target=0.0)
        assert abs(est.value - 2.0) < 0.2

    def test_polynomial_nu_estimator_exactly_one(self):
        # constant central index: slope 0, estimator reports 0 + 1
        f = TruncatedSeries.from_polynomial([2.0, 0, 0, 1.0], order=12)
        est = log_order_from_nu(f, RadialGrid.log_spaced(1e2, 1e6, 8))
        assert est.value == pytest.approx(1.0)
        assert est.half_width == pytest.approx(0.0, abs=1e-12)

    def test_exp_qinv_solution_order_two(self):
        # entire solution exp_{1/q}(a z) of D_q f = a f(qz), |q| < 1
        from jacksonq.qspecial import exp_q

        f = exp_q(QParam(2.0), 72).scale_arg(0.8)
        est = log_order_from_nu(f, RadialGrid.log_spaced(1e2, 1e6, 9))
        assert abs(est.value - 2.0) < 0.2

    def test_constant_rejected(self):
        model = MeroModel.from_rational(RationalFunction([0.5]))
        grid = RadialGrid.log_spaced(1e2, 1e6, 8, angular_nodes=256)
        samples = [characteristic(model, r, 256) for r in grid.radii]
        with pytest.raises(InsufficientGrid):
            log_order_from_T(samples)

    def test_insufficient_grid(self):
        model = MeroModel.from_rational(RationalFunction([1.0, 1.0]))
        samples = [characteristic(model, r, 256) for r in (10.0, 100.0)]
        with pytest.raises(InsufficientGrid):
            log_order_from_T(samples)


class TestWimanValiron:
    def test_max_term_hand_case(self):
        f = TruncatedSeries.from_polynomial([1, 1], order=8)
        s = max_term_central_index(f, 2.0)
        assert s.mu == pytest.approx(2.0)
        assert s.nu == 1

    def test_etilde_nu_at_100(self):
        # direct-scan oracle over n <= 40: nu in {6, 7} at r = 100, q = 2
        qp = QParam(2.0)
        f = etilde_q(qp, 40)
        idx = max(range(41), key=lambda n: (abs(f.c(n)) * 100.0**n, n))
        s = max_term_central_index(f, 100.0)
        assert s.nu == idx
        assert s.nu in (6, 7)

    def test_geometric_coefficients_jump_at_one(self):
        # with c_n = 1 the maximiser sits at 0 below r = 1 and jumps to
        # the top of the stored range above it (caught as non-interior)
        f = TruncatedSeries.from_polynomial(np.ones(9))
        assert max_term_central_index(f, 0.9).nu == 0
        with pytest.raises(TruncationTooShort):
            max_term_central_index(f, 1.1)

    def test_truncation_guard(self):
        f = TruncatedSeries.from_polynomial(np.ones(9))
        with pytest.raises(TruncationTooShort):
            max_term_central_index(f, 3.0)

    def test_refuses_past_the_certified_radius(self):
        # etilde_q at q = 2: the stored coefficients underflow to 0 past
        # n = 45, so far out nu would sit at 45 for every r
        f = etilde_q(QParam(2.0), 300)
        assert 1e12 < f.safe_radius < 1e13
        assert max_term_central_index(f, 1e12).nu < 45
        with pytest.raises(TruncationTooShort, match="certified radius"):
            max_term_central_index(f, 1e20)
        with pytest.raises(TruncationTooShort):
            log_order_from_nu(f, RadialGrid.log_spaced(1e10, 1e40, 9))

    def test_deviation_below_point3_at_q_half(self):
        # q = 0.5 context: limiting deviation |log q - (q-1)|/|log q| ~ 0.28
        qp = QParam(0.5)
        f = big_e_q(qp, 72)
        grid = RadialGrid.log_spaced(1e2, 1e6, 5, angular_nodes=1024)
        rows = wiman_valiron_check(f, qp, 1, grid)
        assert rows[-1].deviation < 0.3

    def test_monotone_trend_q_above_one(self):
        qp = QParam(1.5)
        grid = RadialGrid.log_spaced(1e2, 1e6, 5, angular_nodes=1024)
        for f in (etilde_q(QParam(2.0), 72), big_e_q(QParam(0.5), 72)):
            rows = wiman_valiron_check(f, qp, 1, grid)
            devs = [r.deviation for r in rows]
            assert devs[-3] > devs[-2] > devs[-1]
            assert devs[-1] < 0.3

    def test_exponents_add_k2_vs_k1_twice(self):
        # log|f(q^2 z)/f(z)| = log|f(q^2 z)/f(qz)| + log|f(qz)/f(z)| exactly
        qp = QParam(1.5)
        f = etilde_q(QParam(2.0), 72)
        r = 1e4
        grid = RadialGrid((r,), 1024)
        row2 = wiman_valiron_check(f, qp, 2, grid)[0]
        z = row2.z_star
        part1 = math.log(abs(f.eval(qp.q * z) / f.eval(z)))
        part2 = math.log(abs(f.eval(qp.q**2 * z) / f.eval(qp.q * z)))
        assert row2.log_ratio == pytest.approx(part1 + part2, rel=1e-9)

    def test_polynomial_identity(self):
        f = TruncatedSeries.from_polynomial([3.0, 0, 0, 1.0], order=12)
        assert max_term_central_index(f, 1e5).nu == 3


class TestLogDeriv:
    def test_rational_ratio_decreases(self):
        qp = QParam(2.0)
        f = RationalFunction.from_roots([0.7, -1.1], [0.4j])
        model = MeroModel.from_rational(f, qp)
        grid = RadialGrid.log_spaced(10.0, 1e4, 7, angular_nodes=512)
        rows = logderiv_lemma_check(model, qp, 1, grid)
        assert rows[-1].ratio < 0.2
        assert rows[-1].ratio <= rows[0].ratio

    def test_big_e_product_ratio_small(self):
        qp = QParam(0.5)
        model = big_e_model(qp=qp)
        grid = RadialGrid.log_spaced(1e2, 1e4, 4, angular_nodes=256)
        rows = logderiv_lemma_check(model, qp, 1, grid)
        assert rows[-1].ratio < 0.2

    def test_constant_rejected(self):
        qp = QParam(2.0)
        model = MeroModel.from_rational(RationalFunction([3.0]), qp)
        with pytest.raises(DomainError):
            logderiv_lemma_check(model, qp, 1, RadialGrid((10.0, 100.0)))


class TestSft:
    def test_f_z_margin_bounded(self):
        qp = QParam(0.5)
        model = MeroModel.from_rational(RationalFunction([0, 1]), qp)
        grid = RadialGrid.log_spaced(10.0, 1e4, 6, angular_nodes=512)
        rows = sft_check(model, [0.0, 1.0, INF], qp, grid)
        assert all(r.margin >= -3.0 for r in rows)

    def test_exact_counting_example(self):
        # f = (z^2-1)/z, targets {0, inf, 1, -1}: margin stays above -5
        qp = QParam(0.5)
        model = MeroModel.from_rational(RationalFunction([-1, 0, 1], [0, 1]), qp)
        grid = RadialGrid((1e3,), angular_nodes=2048)
        rows = sft_check(model, [0.0, INF, 1.0, -1.0], qp, grid)
        assert rows[0].margin >= -5.0
        # oracle: zeros at +-1, poles at 0 and the a-points of +-1 all
        # simple, so sum Ntilde ~ 2logr + logr + 2logr + 2logr = 7 log r
        # while (p-2) T ~ 2*(2 log r); margin ~ 3 log r
        assert rows[0].margin == pytest.approx(3 * math.log(1e3), rel=0.1)

    def test_infinity_is_apart_from_every_finite_target(self):
        # f = z: N(r, 0) = N(r, 1) = log r, while 1e308 and infinity are
        # never taken on these circles
        qp = QParam(0.5)
        model = MeroModel.from_rational(RationalFunction([0, 1]), qp)
        grid = RadialGrid((10.0, 100.0))
        rows = sft_check(model, [0.0, 1.0, 1e308, INF], qp, grid)
        for row in rows:
            assert row.sum_Ntilde == pytest.approx(2 * math.log(row.r))
        for dup in ([0.0, 1.0, 1.0 + 0j, INF], [0.0, 1.0, INF, INF]):
            with pytest.raises(DomainError, match="distinct"):
                sft_check(model, dup, qp, grid)

    def test_needs_three_targets(self):
        qp = QParam(0.5)
        model = MeroModel.from_rational(RationalFunction([0, 1]), qp)
        with pytest.raises(DomainError):
            sft_check(model, [0.0, INF], qp, RadialGrid((10.0, 100.0)))


class TestGrowthFloor:
    def test_etilde_solution_gap_zero(self):
        # A = 1/(q-1) constant, f = etilde_2: sigma_f = 2, gap = 0
        qp = QParam(2.0)
        A = MeroModel.from_rational(RationalFunction([1.0 / (qp.q - 1)]))
        f = MeroModel.from_series(etilde_q(qp, 72))
        grid = RadialGrid.log_spaced(1e2, 1e6, 8, angular_nodes=256)
        rep = growth_lower_bound_check(A, f, qp, 1, grid)
        assert not rep.skipped
        assert abs(rep.gap) < 0.25

    def test_polynomial_solution_skipped(self):
        # Example pair: z^5 + 1 with its first-order rational coefficient
        qp = QParam(2.0)
        from test_qode import quintic_first_order

        A = MeroModel.from_rational(quintic_first_order(qp.q))
        f = MeroModel.from_rational(RationalFunction([1, 0, 0, 0, 0, 1]))
        grid = RadialGrid.log_spaced(10.0, 1e3, 6, angular_nodes=256)
        rep = growth_lower_bound_check(A, f, qp, 1, grid)
        assert rep.skipped

    def test_synthetic_weighted_lattice_pair(self):
        # f = prod_{n>=1}(1 - q^{-n} z)^n has f(qz)/f(z) = (1-z) etilde_q(z),
        # so A = -[(1-z) etilde_q(z) - 1]/((q-1) z) is entire of log-order 2
        # while f has log-order 3: the gap stays near 0.
        qp = QParam(2.0)
        q = qp.q
        prod = EtildeProduct(qp)
        f_model = MeroModel.from_product(WeightedLattice(qp))

        def A_eval(z):
            if abs(z) < 1e-8:
                # removable singularity: A(0) = (1 + etilde'(0)) /(q-1)-ish;
                # evaluate by series around 0 via the quotient limit
                eps = 1e-5
                z = complex(eps, eps)
            return -((1.0 - z) * prod.eval(z) - 1.0) / ((q - 1.0) * z)

        A_model = MeroModel.from_sampler(A_eval, entire=True, qp=qp)
        grid = RadialGrid.log_spaced(1e2, 1e5, 8, angular_nodes=256)
        rep = growth_lower_bound_check(A_model, f_model, qp, 1, grid)
        assert not rep.skipped
        assert rep.gap >= -0.3
        assert rep.sigma_A > 1.5  # genuinely transcendental coefficient


class TestEstimatorAgreement:
    def test_T_and_nu_agree_for_etilde(self):
        qp = QParam(2.0)
        grid = RadialGrid.log_spaced(1e2, 1e6, 8, angular_nodes=256)
        est_nu = log_order_from_nu(etilde_q(qp, 72), grid)
        model = etilde_model(qp=qp)
        nudged = grid.avoiding(model.known_moduli(grid.radii[-1] * 2.0))
        samples = [characteristic(model, r, 256) for r in nudged.radii]
        est_T = log_order_from_T(samples)
        assert abs(est_T.value - est_nu.value) < 0.3

    def test_T_and_nu_agree_for_solver_output(self):
        # D_q f = f at q = 2 (polynomial coefficient): the solved series
        # is entire; both estimators see logarithmic order two
        from jacksonq.qode import QdeProblem, solve_series

        qp = QParam(2.0)
        prob = QdeProblem.homogeneous(1, RationalFunction([-1.0]), qp, (1.0,))
        f = solve_series(prob, 72)
        grid = RadialGrid.log_spaced(1e2, 1e6, 8, angular_nodes=256)
        est_nu = log_order_from_nu(f, grid)
        model = MeroModel.from_series(f)
        samples = [characteristic(model, r, 256) for r in grid.radii]
        est_T = log_order_from_T(samples)
        assert abs(est_T.value - est_nu.value) < 0.3


class TestFirstFundamentalTheorem:
    def test_translation_bound_over_three_decades(self):
        qp = QParam(0.5)
        for _ in range(6):
            zeros = list(RNG.uniform(0.3, 2.0, 2) * np.exp(
                1j * RNG.uniform(0, 2 * np.pi, 2)))
            poles = list(RNG.uniform(0.3, 2.0, 2) * np.exp(
                1j * RNG.uniform(0, 2 * np.pi, 2)))
            f = RationalFunction.from_roots(zeros, poles)
            a = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            f0 = f.eval(0.0)
            if abs(f0 - a) < 0.05:
                continue
            fa = f.subtract_const(a)
            g = RationalFunction(fa.den, fa.num, cancel=False)  # 1/(f - a)
            C = (math.log(max(abs(a), 1.0)) + abs(math.log(abs(f0 - a))) + 1.0)
            for r in (10.0, 100.0, 1000.0):
                Tf = characteristic(MeroModel.from_rational(f), r, 2048).T
                Tg = characteristic(MeroModel.from_rational(g), r, 2048).T
                assert abs(Tf - Tg) <= C


class TestMonotonicity:
    def test_n_is_nondecreasing_integer_step(self):
        f = RationalFunction.from_roots([0.5, 1.5, 1.5, -2.0], [1.0j])
        model = MeroModel.from_rational(f)
        counts = []
        for r in np.linspace(0.1, 5.0, 60):
            origin, rest = model.divisor(float(r), 0.0)
            n_r = origin + sum(m for mod, m in rest if mod <= r)
            counts.append(n_r)
        assert all(isinstance(c, int) for c in counts)
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[0] == 0 and counts[-1] == 4

    def test_N_nondecreasing_continuous(self):
        f = RationalFunction.from_roots([0.5, 1.5, -2.0], [1.0j])
        model = MeroModel.from_rational(f)
        radii = np.linspace(0.1, 20.0, 50)
        vals = [counting_N(model, float(r), 0.0) for r in radii]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # continuity across a zero modulus: no jump in N itself
        eps = 1e-9
        for r0 in (0.5, 1.5, 2.0):
            below = counting_N(model, r0 * (1 - eps), 0.0)
            above = counting_N(model, r0 * (1 + eps), 0.0)
            assert abs(above - below) < 1e-6


class TestCsv:
    def test_schema_and_stability(self):
        qp = QParam(0.5)
        model = MeroModel.from_rational(
            RationalFunction([-1, 0, 1], [0, 1]), qp)
        samples = [characteristic(model, r, 256) for r in (2.0, 4.0)]
        text1 = samples_to_csv(samples)
        text2 = samples_to_csv(
            [characteristic(model, r, 256) for r in (2.0, 4.0)])
        assert text1 == text2
        assert text1.splitlines()[0] == CSV_HEADER
        assert len(text1.splitlines()) == 3
        first = text1.splitlines()[1].split(",")
        assert len(first) == 8
        assert "e" in first[0]

"""The Jackson weights of rational models against D_q f itself.

A rational model weighs a point where f = a (multiplicity h) by
h - min(h, h'), h' the multiplicity of its q-image in the same list, and
an origin entry by 1. The oracle here never looks at q-images: it takes
k', the order of D_q f at the point, from the numerator

    N(z) = P(qz) Q(z) - P(z) Q(qz)        of D_q (P/Q)

built and Taylor-shifted in 50-digit mpmath (one order less at the
origin, for the 1/((q - 1) z) factor), and checks h - min(h, k'). At a
pole the same N serves, since D_q(1/f) has numerator -N.

Roots are dyadic and q is one of seven dyadic bases, so each q-image is
exact in floats: it lands on an entry or at least 1/16 away from all of
them. Each draw puts a q-orbit of multiplicities into the zeros and into
the poles, so h < h', h = h' and h > h', h' = 0, the origin and target
infinity all occur.
"""

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jacksonq.nevanlinna import INF, MeroModel
from jacksonq.qcore import QParam
from jacksonq.qode import RationalFunction

Q_VALUES = (2.0, 0.5, -2.0, -0.5, 2j, 1 + 1j, 0.5 + 0.5j)

dyadic = st.builds(lambda a, b: complex(a, b) / 4,
                   st.integers(-8, 8), st.integers(-8, 8)).filter(bool)


@st.composite
def cases(draw):
    """(q, zeros, poles): each list holds a q-orbit z0, q z0, q^2 z0 with
    drawn multiplicities (0 to 3), maybe an origin entry and up to two
    free dyadic roots."""
    q = draw(st.sampled_from(Q_VALUES))

    def orbit():
        z = draw(dyadic)
        out = []
        for mult in draw(st.lists(st.integers(0, 3), min_size=2,
                                  max_size=3)):
            out += [z] * mult
            z = q * z
        return out

    lists = []
    for _ in range(2):
        lists.append([0j] * draw(st.integers(0, 2)) + orbit()
                     + draw(st.lists(dyadic, max_size=2)))
    return (q, *lists)


def _expand(roots) -> list:
    """Coefficients (lowest first) of prod (z - r), in mpmath."""
    out = [mpmath.mpc(1)]
    for r in roots:
        r = mpmath.mpc(r)
        out = ([-r * out[0]]
               + [out[i - 1] - r * out[i] for i in range(1, len(out))]
               + [out[-1]])
    return out


def _mul(a, b) -> list:
    out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _order_at(coeffs, z0) -> int:
    """Order of vanishing at z0 of the polynomial coeffs (lowest first):
    the Taylor coefficients at z0 come off one synthetic division each."""
    z0 = mpmath.mpc(z0)
    tol = mpmath.mpf(10) ** -30 * sum(abs(c) for c in coeffs) \
        * max(1, abs(z0)) ** len(coeffs)
    rest = list(coeffs)
    order = 0
    while rest:
        acc = mpmath.mpc(0)
        quotient = []
        for c in reversed(rest):
            acc = acc * z0 + c
            quotient.append(acc)
        if abs(quotient.pop()) > tol:
            return order
        rest = quotient[::-1]
        order += 1
    raise AssertionError("N vanishes identically")


def _dq_numerator(q, zeros, poles) -> list:
    """N(z) = P(qz) Q(z) - P(z) Q(qz) for P, Q monic on the root lists."""
    qm = mpmath.mpc(q)
    P, Q = _expand(zeros), _expand(poles)
    Pq = [c * qm ** k for k, c in enumerate(P)]
    Qq = [c * qm ** k for k, c in enumerate(Q)]
    left, right = _mul(Pq, Q), _mul(P, Qq)
    return [a - b for a, b in zip(left, right)]


def _oracle_weights(points, numerator):
    """(origin weight, [(modulus, weight)]) of the nonzero weights."""
    out = []
    for z0, h in points:
        k = _order_at(numerator, z0) - (1 if z0 == 0 else 0)
        if h - min(h, k):
            out.append((abs(z0), h - min(h, k)))
    return (sum(w for mod, w in out if mod == 0),
            [(mod, w) for mod, w in out if mod])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=cases())
# h < h': 0.5 (h = 1) has image 1 (h' = 2); 1 keeps its full 2
@example(case=(2.0, [0.5, 1.0, 1.0], [-0.75]))
# h = h' = 2 with cancellation: at z0 = 1, f(qz) and f(z) share their
# leading term, so D_q f vanishes to order 3 > h there
@example(case=(-2.0, [1.0, 1.0, -2.0, -2.0, -3.0], []))
# h > h': 1 (h = 3) has image 0.5 + 0.5i (h' = 1)
@example(case=(0.5 + 0.5j, [1.0, 1.0, 1.0, 0.5 + 0.5j], []))
# h' = 0: no image of a zero is a zero; the image of 0.75 is a pole
@example(case=(2j, [0.25 - 0.5j, 0.75], [1.5j]))
# an origin entry of multiplicity 2 weighs 1
@example(case=(-0.5, [0.0, 0.0, 0.5], [0.25j]))
# target infinity: pole 0.25 (h = 2) has image 0.25 + 0.25i (h' = 1),
# whose image 0.5i (h' = 1) gives weight 0
@example(case=(1 + 1j, [0.5], [0.25, 0.25, 0.25 + 0.25j, 0.5j]))
def test_weights_match_the_order_of_dq_f(case):
    q, zeros, poles = case
    assume(zeros or poles)
    assume(not set(zeros) & set(poles))
    f = RationalFunction.from_roots(zeros, poles)
    qp = QParam(q)
    model = MeroModel.from_rational(f, qp)
    with mpmath.workdps(50):
        numerator = _dq_numerator(q, zeros, poles)
        assert model.jackson_weights(0.0, qp) == _oracle_weights(
            f.zeros(), numerator)
        assert model.jackson_weights(INF, qp) == _oracle_weights(
            f.poles(), numerator)

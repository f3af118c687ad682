"""The a-point counts of rational models against the argument principle.

A rational model counts the points where f = a from one kept root list
per target: the attached zeros of a from_roots function for a = 0, and a
solve of the uncancelled f - a otherwise. The winding number of f(z) - a
along |z| = r, evaluated pointwise from f itself, counts the same points
minus the poles of f inside r, so on every circle between two listed
moduli

    n(r, a) = winding(f - a, r) + n(r, infinity).

f is drawn either from coefficients (kept coprime by the constructor) or
from root lists that hold a zero at the origin.
"""

import cmath
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jacksonq.nevanlinna import INF, MeroModel, winding_number
from jacksonq.qode import RationalFunction

TARGETS = (0.0, 1.0, -1.0, 0.5 + 0.5j)

coefficient = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                 allow_infinity=False)
point = st.builds(lambda m, t: m * cmath.exp(1j * t),
                  st.floats(0.2, 5.0), st.floats(0.0, 2.0 * math.pi))


@st.composite
def cases(draw):
    """("coefficients", num, den) or ("roots", zeros, poles)."""
    if draw(st.booleans()):
        num = draw(st.lists(coefficient, min_size=2, max_size=5))
        den = draw(st.lists(coefficient, min_size=1, max_size=4))
        return "coefficients", num, den
    zeros = [0.0] * draw(st.integers(1, 2)) + draw(
        st.lists(point, min_size=0, max_size=3))
    poles = draw(st.lists(point, min_size=0, max_size=3))
    return "roots", zeros, poles


def _build(case) -> RationalFunction:
    kind, first, second = case
    if kind == "coefficients":
        assume(abs(first[-1]) >= 0.1 and abs(second[-1]) >= 0.1)
        f = RationalFunction(first, second)
        assume(f.num_degree + f.den_degree > 0)  # not a constant
        return f
    assume(all(abs(z - p) > 1e-2 for z in first for p in second))
    return RationalFunction.from_roots(first, second)


def _count(divisor, r: float) -> int:
    origin, rest = divisor
    return origin + sum(m for mod, m in rest if mod <= r)


def _radii_between(moduli) -> list:
    """A radius inside the smallest nonzero modulus, one in each gap of
    relative width above 2%, and one outside the largest (up to 1e3)."""
    mods = sorted(m for m in moduli if 0 < m < 1e3)
    if not mods:
        return [1.0]
    radii = [0.5 * mods[0], 2.0 * mods[-1]]
    radii += [math.sqrt(a * b) for a, b in zip(mods, mods[1:]) if b > 1.02 * a]
    return radii


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=cases())
@example(case=("coefficients", [0.3 - 1j, 0.0, 1.5, 1j], [2.0, -0.7 + 0.1j]))
@example(case=("roots", [0.0, 0.0, 1.5 - 0.5j, -2.0], [0.8j, 3.0 + 1.0j]))
def test_a_points_match_the_winding_number(case):
    f = _build(case)
    model = MeroModel.from_rational(f)
    poles = model.divisor(1.0, INF)
    for a in TARGETS:
        points = model.divisor(1.0, a)
        moduli = [m for m, _ in points[1] + poles[1]]
        for r in _radii_between(moduli):
            winding = winding_number(lambda zs: f.eval(zs) - a, r)
            assert _count(points, r) == winding + _count(poles, r), (a, r)

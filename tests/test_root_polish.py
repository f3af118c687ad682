"""Root polishing and clustering against the routes they replace.

roots_with_multiplicity polishes simple roots by Newton steps whose
Horner runs on Python complex, and _cluster keeps each cluster's mean
instead of recomputing every mean for every point. Both must give, bit
for bit, what the kept reference copies below give: Horner on numpy
0-d arrays (numpy's scalar complex product rounds as CPython's does) and
a fresh np.mean per comparison. The strict reading runs the band test
check_unambiguous on either route's finished list.
"""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacksonq.errors import (
    JacksonQError,
    MultiplicityAmbiguous,
    RootFindingFailed,
)
from jacksonq.polyroots import (
    CLUSTER_TOL,
    _cluster,
    _newton,
    check_unambiguous,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_trim,
    roots_with_multiplicity,
)


def _cluster_ref(points, base_tol):
    remaining = sorted(points, key=lambda z: (z.real, z.imag))
    clusters = []
    for p in remaining:
        best = None
        best_d = None
        for cl in clusters:
            mean = complex(np.mean(cl))
            d = abs(p - mean)
            if d <= base_tol * len(cl) ** 2 and (best_d is None or d < best_d):
                best, best_d = cl, d
        if best is None:
            clusters.append([p])
        else:
            best.append(p)
    return clusters


def _newton_ref(coeffs, dcoeffs, z0, steps=3):
    z = z0
    for _ in range(steps):
        dv = poly_eval(dcoeffs, z)
        if abs(dv) == 0.0:
            return z
        step = poly_eval(coeffs, z) / dv
        if not np.isfinite(step):
            return z
        z = z - step
    return complex(z)


def _roots_ref(coeffs, cluster_tol=CLUSTER_TOL):
    arr = poly_trim(coeffs, rel_tol=1e-14)
    deg = arr.size - 1
    if deg == 0:
        return []
    try:
        raw = np.roots(arr[::-1])
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailed(
            f"companion eigenvalues failed: {exc}") from exc
    scale = max(1.0, float(np.max(np.abs(raw))))
    dcoef = poly_derivative(arr)
    out = []
    for pts in _cluster_ref(list(raw), cluster_tol * scale):
        mult = len(pts)
        loc = complex(np.mean(pts))
        if mult == 1:
            loc = _newton_ref(arr, dcoef, loc)
        out.append((loc, mult))
    out.sort(key=lambda p: (abs(p[0]), p[0].real, p[0].imag))
    return out


def _route(roots, strict):
    """roots (a route), followed by the band test when strict."""
    if not strict:
        return roots
    return lambda coeffs: check_unambiguous(roots(coeffs))


def _bits(z):
    """Type and exact bits of a complex number."""
    c = complex(z)
    return type(z).__name__, c.real.hex(), c.imag.hex()


def _outcome(fn, *args, **kwargs):
    # a typed error is an outcome both routes must share; anything else,
    # numpy's LinAlgError included, fails the test
    try:
        with np.errstate(all="ignore"):
            return [(_bits(z), m) for z, m in fn(*args, **kwargs)]
    except JacksonQError as exc:
        return type(exc).__name__, str(exc)


points = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                            allow_infinity=False)


@st.composite
def polynomials(draw):
    """Coefficient arrays of degree 1-8: random coefficients over a wide
    spread of scales, or products over roots that repeat (multiple
    roots) or sit near each other at about the clustering tolerance."""
    deg = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("coefficients", "multiple", "clustered")))
    if kind == "coefficients":
        coeffs = [draw(points) * 10.0 ** draw(st.integers(-6, 6))
                  for _ in range(deg + 1)]
        if abs(coeffs[-1]) == 0.0:
            coeffs[-1] = 1.0
        return np.array(coeffs, dtype=np.complex128)
    roots = [draw(points) for _ in range(deg)]
    for i in range(1, deg):
        if kind == "multiple" and draw(st.booleans()):
            roots[i] = roots[draw(st.integers(0, i - 1))]
        elif kind == "clustered" and draw(st.booleans()):
            gap = 10.0 ** draw(st.floats(-9.0, -5.0))
            roots[i] = roots[i - 1] + gap * cmath.exp(
                1j * draw(st.floats(0.0, 6.28)))
    return poly_from_roots(roots, draw(points) or 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(coeffs=polynomials(), strict=st.booleans())
def test_roots_match_the_reference_route(coeffs, strict):
    assert _outcome(_route(roots_with_multiplicity, strict), coeffs) == (
        _outcome(_route(_roots_ref, strict), coeffs))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(coeffs=polynomials(), z0=points)
def test_newton_matches_the_reference(coeffs, z0):
    arr = poly_trim(coeffs)
    dcoef = poly_derivative(arr)
    got = _newton(arr[::-1].tolist(), dcoef[::-1].tolist(), z0)
    assert _bits(got) == _bits(_newton_ref(arr, dcoef, z0))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(coeffs=polynomials())
def test_cluster_matches_the_reference(coeffs):
    try:
        with np.errstate(all="ignore"):
            raw = np.roots(poly_trim(coeffs)[::-1])
    except np.linalg.LinAlgError:  # a subnormal leading coefficient
        raw = np.array([np.nan])
    assume(np.all(np.isfinite(raw)))
    raw = list(raw)
    tol = CLUSTER_TOL * max([1.0] + [abs(z) for z in raw])
    got = _cluster(raw, tol)
    want = _cluster_ref(raw, tol)
    assert [members for members, _ in got] == want
    assert [_bits(mean) for _, mean in got] == [
        _bits(complex(np.mean(cl))) for cl in want]


@pytest.mark.parametrize("strict", [False, True])
def test_ambiguous_clusters_raise_in_both_routes(strict):
    # two roots 2e-7 apart, between the merging tolerance (1e-7 at scale
    # 1) and three times it: the band check_unambiguous refuses
    coeffs = poly_from_roots([1.0, 1.0 + 2e-7, -0.5j])
    got = _outcome(_route(roots_with_multiplicity, strict), coeffs)
    assert got == _outcome(_route(_roots_ref, strict), coeffs)
    assert (got[0] == "MultiplicityAmbiguous") == strict


@pytest.mark.parametrize("ratio, refused", [
    (0.9, False), (1.1, True), (2.9, True), (3.1, False)])
@pytest.mark.parametrize("base", [1.0, -0.5j, 1e3])
def test_band_test_reads_its_scale_off_the_list(base, ratio, refused):
    # two locations ratio * tol apart, tol = 1e-7 * max(1, max |z|): the
    # band (tol, 3 tol) is refused, either side of it passes
    gap = ratio * CLUSTER_TOL * max(1.0, abs(base))
    roots = [(0.25 * base, 1), (base, 2), (base + gap, 1)]
    if refused:
        with pytest.raises(MultiplicityAmbiguous):
            check_unambiguous(roots)
    else:
        assert check_unambiguous(roots) is roots


@pytest.mark.parametrize("coeffs", [[0, 0, -5e-324, 5e-324],
                                    [1e-322, 3e-323, 1e-323j]])
def test_subnormal_leading_coefficient_raises_a_typed_error(coeffs):
    # np.roots divides by the subnormal leading coefficient, the companion
    # matrix fills with inf/NaN and numpy raises LinAlgError
    with np.errstate(all="ignore"), pytest.raises(RootFindingFailed):
        roots_with_multiplicity(coeffs)
    assert _outcome(roots_with_multiplicity, coeffs) == _outcome(
        _roots_ref, coeffs)

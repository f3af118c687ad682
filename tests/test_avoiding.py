"""RadialGrid.avoiding nudges radii off the moduli of zeros and poles.

It tests a radius only against the moduli that bisection finds in a
window r (1 +- 4e-6) around it, a window wider than the relative 1e-6 of
the nudge test. It must nudge the same radii the same number of times as
the scan of every modulus (the reference below), and raise the same
InsufficientGrid after 64 nudges, or where a nudge carries a radius up
to the next, on moduli clustered in and around the nudge window: chains
on which every nudge lands next to the next modulus, jittered copies of
a radius, and far moduli, zero, negative and infinite ones.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.errors import DomainError, InsufficientGrid
from jacksonq.nevanlinna import RadialGrid


def avoiding_ref(radii, moduli) -> tuple:
    """The radii of RadialGrid(radii).avoiding(moduli), each nudged while
    any modulus is within relative 1e-6 of it."""
    mods = sorted(m for m in moduli if m > 0)
    out, near = [], []
    for r in radii:
        rr = r
        nudges = 0
        last = None
        while any(abs(rr / m - 1.0) <= 1e-6 for m in mods):
            if nudges == 64:
                raise InsufficientGrid(
                    f"radius {r:g} still within relative 1e-06 of a "
                    "modulus after 64 nudges")
            last = next(m for m in mods if abs(rr / m - 1.0) <= 1e-6)
            rr *= 1.0 + 1e-5
            nudges += 1
        out.append(rr)
        near.append(last)
    for i in range(len(out) - 1):
        if out[i] >= out[i + 1]:
            raise InsufficientGrid(
                f"radius {radii[i]:g}, nudged off the modulus "
                f"{near[i]:g}, reaches the next radius {radii[i + 1]:g}")
    return RadialGrid(tuple(out), 64).radii


def outcome(fn):
    try:
        return fn()
    except (DomainError, InsufficientGrid) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(r=st.floats(1e-3, 1e6), spread=st.floats(1.0, 1.001),
       jitter=st.lists(st.floats(-5e-6, 5e-6), max_size=12),
       chain=st.integers(0, 70), chain_jitter=st.floats(-9e-7, 9e-7),
       far=st.lists(st.floats(1e-300, 1e300), max_size=4))
# every nudge lands on the next modulus: 64 clear, a 65th is too many
@example(r=1.0, spread=1.5, jitter=[], chain=64, chain_jitter=0.0, far=[])
@example(r=1.0, spread=1.5, jitter=[], chain=65, chain_jitter=0.0, far=[])
@example(r=3.7, spread=1.0004, jitter=[0.0, 1e-6, -1e-6, 4e-6],
         chain=30, chain_jitter=-9e-7, far=[1e300])
# one nudge carries the first radius past the second
@example(r=1.0, spread=1.000005, jitter=[0.0], chain=0, chain_jitter=0.0,
         far=[])
def test_avoiding_is_the_full_scan(r, spread, jitter, chain, chain_jitter,
                                   far):
    radii = (r, r * spread) if r * spread > r else (r,)
    moduli = ([r * (1.0 + d) for d in jitter]
              + [r * (1.0 + 1e-5) ** k * (1.0 + chain_jitter)
                 for k in range(chain)]
              + far + [0.0, -r, math.inf])
    grid = RadialGrid(radii, 64)
    assert outcome(lambda: grid.avoiding(moduli).radii) \
        == outcome(lambda: avoiding_ref(radii, moduli))


def test_a_nudge_onto_the_next_radius_names_both():
    # it raised DomainError("radii must be strictly increasing") here
    with pytest.raises(InsufficientGrid, match=r"radius 1, nudged off the "
                       r"modulus 1, reaches the next radius 1\.00001"):
        RadialGrid((1.0, 1.000005)).avoiding([1.0])

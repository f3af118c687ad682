"""Polynomial root extraction with multiplicities.

Roots come from the companion-matrix eigenvalues (np.roots), get polished
by a few Newton steps while they look simple, and are then merged into
multiplicity clusters: companion eigenvalues of an exact k-fold root
scatter like eps^(1/k) * scale, so clusters are grown with a tolerance
that widens with the candidate multiplicity.
"""

from __future__ import annotations

import numpy as np

from .errors import MultiplicityAmbiguous, RootFindingFailed

CLUSTER_TOL = 1e-7


def poly_trim(coeffs, rel_tol: float = 0.0) -> np.ndarray:
    """Drop trailing (highest-order) coefficients that are exactly zero,
    or tiny relative to the largest magnitude when rel_tol > 0."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.size == 0:
        return np.zeros(1, dtype=np.complex128)
    scale = float(np.max(np.abs(arr)))
    cut = rel_tol * scale
    last = arr.size - 1
    while last > 0 and abs(arr[last]) <= cut:
        last -= 1
    return arr[: last + 1].copy()


def poly_eval(coeffs, z):
    res = np.zeros_like(np.asarray(z, dtype=np.complex128))
    for c in np.asarray(coeffs, dtype=np.complex128)[::-1]:
        res = res * z + c
    return res


def poly_mul(a, b) -> np.ndarray:
    return np.convolve(np.asarray(a, dtype=np.complex128),
                       np.asarray(b, dtype=np.complex128))


def poly_derivative(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.size <= 1:
        return np.zeros(1, dtype=np.complex128)
    return arr[1:] * np.arange(1, arr.size)


def poly_deflate(coeffs, root: complex) -> np.ndarray:
    """Synthetic division by (z - root); the remainder is discarded."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    n = arr.size - 1
    if n < 1:
        raise RootFindingFailed("cannot deflate a constant")
    out = np.zeros(n, dtype=np.complex128)
    acc = arr[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = arr[i] + acc * root
    return out


def poly_from_roots(roots, lead: complex = 1.0) -> np.ndarray:
    out = np.array([lead], dtype=np.complex128)
    for r in roots:
        out = np.convolve(out, [-r, 1.0])
    return out


def roots_with_multiplicity(coeffs, cluster_tol: float = CLUSTER_TOL,
                            strict_ambiguity: bool = False):
    """Roots of a polynomial as (location, multiplicity) pairs.

    ``strict_ambiguity`` raises MultiplicityAmbiguous when two clusters
    sit within a factor 3 of the merging tolerance of each other, i.e.
    when the simple/multiple reading genuinely depends on the tolerance.
    """
    arr = poly_trim(coeffs, rel_tol=1e-14)
    deg = arr.size - 1
    if deg == 0:
        return []
    try:
        raw = np.roots(arr[::-1])
    except np.linalg.LinAlgError as exc:  # e.g. a subnormal leading term
        raise RootFindingFailed(
            f"companion eigenvalues failed: {exc}") from exc
    if raw.size != deg or not np.all(np.isfinite(raw)):
        raise RootFindingFailed("companion eigenvalues did not resolve")
    scale = max(1.0, float(np.max(np.abs(raw))))
    # Horner for the Newton polish runs on Python complex, highest power
    # first; its products round as numpy's scalar ones do
    rev = arr[::-1].tolist()
    drev = poly_derivative(arr)[::-1].tolist()
    out = []
    for pts, loc in _cluster(list(raw), cluster_tol * scale):
        mult = len(pts)
        if mult == 1:
            loc = _newton(rev, drev, loc)
        out.append((loc, mult))
    if strict_ambiguity:
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                gap = abs(out[i][0] - out[j][0])
                if cluster_tol * scale < gap < 3.0 * cluster_tol * scale:
                    raise MultiplicityAmbiguous(
                        f"root clusters separated by {gap:.3g}, at the edge "
                        f"of tolerance {cluster_tol * scale:.3g}")
    out.sort(key=lambda p: (abs(p[0]), p[0].real, p[0].imag))
    return out


def _cluster(points, base_tol: float):
    """Single-linkage clustering with multiplicity-aware growth: a cluster
    of size k accepts new members within base_tol * k^2 of its mean, since
    eigenvalue scatter of a k-fold root grows like eps^(1/k). Returns
    [members, mean] pairs; a mean is recomputed only when its cluster
    grows."""
    remaining = sorted(points, key=lambda z: (z.real, z.imag))
    clusters: list[list] = []
    for p in remaining:
        best = None
        best_d = None
        for cl in clusters:
            members, mean = cl
            d = abs(p - mean)
            near = d <= base_tol * (len(members) ** 2)
            if near and (best_d is None or d < best_d):
                best, best_d = cl, d
        if best is None:
            best = [[], None]
            clusters.append(best)
        best[0].append(p)
        best[1] = complex(np.mean(best[0]))
    return clusters


def _horner(rev: list, z: complex) -> complex:
    """The polynomial with coefficients rev (highest power first) at z."""
    res = 0j
    for c in rev:
        res = res * z + c
    return res


def _newton(rev: list, drev: list, z0: complex, steps: int = 3) -> complex:
    """Newton steps from z0 on the polynomial rev (highest power first)
    with derivative drev. The quotient is taken on np.complex128: numpy
    divides complex numbers by another method than CPython."""
    z = z0
    for _ in range(steps):
        zc = complex(z)
        dv = np.complex128(_horner(drev, zc))
        if abs(dv) == 0.0:
            return z
        step = np.complex128(_horner(rev, zc)) / dv
        if not np.isfinite(step):
            return z
        z = z - step
    return complex(z)

"""High-precision references for the segment-square integrals.

Each is the corner difference of the antiderivative over the exact square,
in mpmath at 60 digits: no corner is rounded, and the cancellation between
corners (up to about 20 digits on the test ranges) leaves 40. The
antiderivatives take their logs of squared lengths over an arbitrary scale
ell^2, which cancels between the corners. Shares no code with
casvolt.closed_forms.
"""
import mpmath

DPS = 60


def reflection_corner(z, zp, v, ell=1):
    """The one-plate antiderivative at the corner (z, z')."""
    if z == zp:
        return 1 / (16 * v * v * z * zp)
    big_a = (1 + v) * zp + (v - 1) * z
    big_b = (1 + v) * z + (v - 1) * zp
    log_diff = mpmath.log(big_a**2 / ell**2) - mpmath.log(big_b**2 / ell**2)
    return (8 * v * z * zp + (1 - v * v) * (z * z - zp * zp) * log_diff) / (
        128 * v**3 * (z * zp) ** 2)


def translation_corner(z, zp, v, nav, ell=1):
    """The translated-image antiderivative at the corner (z, z'), nav = n a v."""
    if z == zp:
        return 1 / (8 * nav * nav)
    p = (1 + v) * (zp - z) + 2 * nav
    q = (1 - v) * (z - zp) + 2 * nav
    log_diff = mpmath.log(p**2 / ell**2) - mpmath.log(q**2 / ell**2)
    return (8 * nav + ((1 - v * v) * (z - zp) + 2 * nav * v) * log_diff) / (64 * nav**3)


def _square(f, c0, c1):
    return f(c1, c1) - f(c1, c0) - f(c0, c1) + f(c0, c0)


def corner_magnitude(corner, corners, *params):
    """Sum of |corner(x, y, *params)| over x and y in corners: the scale of
    the rounding error of a corner difference taken in floats."""
    with mpmath.workdps(DPS):
        params = [mpmath.mpf(p) for p in params]
        return float(sum(abs(corner(mpmath.mpf(x), mpmath.mpf(y), *params))
                         for x in corners for y in corners))


def reflection_square(base, b, v, ell=1):
    """The one-plate kernel over [base, base + b]^2, base and b exact."""
    with mpmath.workdps(DPS):
        base, b, v, ell = (mpmath.mpf(x) for x in (base, b, v, ell))
        return _square(lambda z, zp: reflection_corner(z, zp, v, ell), base, base + b)


def one_plate(z0, b, v, ell=1):
    return reflection_square(z0, b, v, ell)


def reflected(z0, b, v, a, n, ell=1):
    """Reflected image n: the one-plate square at the exact base z0 - a n."""
    with mpmath.workdps(DPS):
        return reflection_square(mpmath.mpf(z0) - mpmath.mpf(a) * n, b, v, ell)


def translated(z0, b, v, a, n, ell=1):
    with mpmath.workdps(DPS):
        z0, b, v, ell = (mpmath.mpf(x) for x in (z0, b, v, ell))
        nav = n * mpmath.mpf(a) * v
        return _square(lambda z, zp: translation_corner(z, zp, v, nav, ell), z0, z0 + b)


def pair(z0, b, v, a, n):
    """The +n/-n pair term: both reflected and both translated images."""
    with mpmath.workdps(DPS):
        return (reflected(z0, b, v, a, n) + reflected(z0, b, v, a, -n)
                + translated(z0, b, v, a, n) + translated(z0, b, v, a, -n))

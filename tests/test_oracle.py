"""Independent quadrature, derivative, and verification oracles."""
import math
import random
import sys

import numpy as np
import pytest

import casvolt.oracle as oracle
from casvolt import (
    ConvergenceError,
    DomainError,
    PathSegment,
    PoleInsideDomainError,
    deriv_check,
    one_plate_integral,
    one_plate_kernel,
    quad_image,
    quad_one_plate,
    reflected_image_integral,
    reflected_image_kernel,
    run_verification,
    translated_image_integral,
    translated_image_kernel,
)
from casvolt.closed_forms import _reflection_square, _translation_square
from casvolt.oracle import (
    _DERIV_MARGIN,
    _HIGH_NODES,
    _HIGH_WEIGHTS,
    _LOW_NODES,
    _LOW_WEIGHTS,
    _NOISE_FLOOR,
    _closed_reflection,
    _closed_translated,
    _patch,
    _rule_sum,
    _sample_image,
    _sample_one_plate,
    _sample_translation_point,
    pole_entry_one_plate,
    pole_entry_reflected,
    pole_entry_translated,
)


def test_quad_one_plate_matches_closed_form():
    seg = PathSegment(1.0, 0.005, 0.01)
    result = quad_one_plate(seg)
    closed = one_plate_integral(seg)
    assert result.value == pytest.approx(closed, rel=1e-12, abs=0.0)
    assert abs(result.value - closed) <= result.error_estimate
    assert result.error_estimate <= 1e-9 * abs(closed)


EPS = sys.float_info.epsilon


@pytest.mark.parametrize("size, nodes, weights", [
    (8, _LOW_NODES, _LOW_WEIGHTS), (16, _HIGH_NODES, _HIGH_WEIGHTS),
])
def test_rules_are_gauss_legendre(size, nodes, weights):
    # the Newton-refined rule sits within a few ulps of 1 of numpy's
    # eigenvalue rule, whose weights are themselves up to ~60 ulps of the
    # weight off the exact ones
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(size)
    assert len(nodes) == len(weights) == size
    assert max(abs(x - r) for x, r in zip(nodes, ref_nodes)) <= 2 * EPS
    assert max(abs(w - r) for w, r in zip(weights, ref_weights)) <= 8 * EPS
    assert abs(math.fsum(weights) - 2.0) <= 2 * EPS
    for k in range(2 * size):
        moment = math.fsum(w * x**k for x, w in zip(nodes, weights))
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(moment - exact) <= 1e-14 * max(exact, 1.0), k


# (name, sign, public kernel of (z, z', v, a, n)) of each quadrature family
FAMILIES = [
    ("one_plate", 1.0, lambda z, zp, v, a, n: one_plate_kernel(z, zp, v)),
    ("reflected", 1.0, reflected_image_kernel),
    ("translated", -1.0, translated_image_kernel),
]


@pytest.mark.parametrize("name, sign, kernel", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_inline_integrand_is_the_public_kernel(name, sign, kernel):
    # a one-point rule of weight 1 returns the inline integrand itself
    rng = random.Random(20261019)
    for _ in range(500):
        z, zp, v = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.003, 0.3)
        a, n = rng.uniform(0.5, 2.0), rng.choice((1, 2, 3, -1, -2, -3))
        shift = 0.0 if name == "one_plate" else 2.0 * a * n
        inline = _rule_sum([z], [zp], [1.0], v * v, sign, shift)
        public = kernel(z, zp, v, a, n)
        assert abs(inline - public) <= 2 * math.ulp(public), (z, zp, v, a, n)


def _einsum_patch(kernel, x0, x1, y0, y1):
    """The embedded rule evaluated as a numpy einsum over the public kernel,
    with its error floored at the absolute integral."""
    hx, cx, hy, cy = 0.5 * (x1 - x0), 0.5 * (x1 + x0), 0.5 * (y1 - y0), 0.5 * (y1 + y0)
    sums = []
    for size in (8, 16):
        nodes, weights = np.polynomial.legendre.leggauss(size)
        grid = kernel((cx + hx * nodes)[:, None], (cy + hy * nodes)[None, :])
        sums.append([hx * hy * np.einsum("i,j,ij->", weights, weights, values)
                     for values in (grid, np.abs(grid))])
    (low, _), (high, absolute) = sums
    return float(high), float(max(abs(high - low), _NOISE_FLOOR * absolute))


@pytest.mark.parametrize("name, sign, kernel", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_patch_matches_an_einsum_of_the_rule(name, sign, kernel):
    # whole verify squares, whose two rules differ by up to order one, and
    # quadrants of them down to the noise floor
    rng = random.Random(4242)
    for _ in range(30):
        if name == "one_plate":
            seg, a, n = _sample_one_plate(rng), 1.0, 1
        else:
            seg, a, n = _sample_image(rng, name)
        shift = 0.0 if name == "one_plate" else 2.0 * a * n
        x0, x1 = seg.z0, seg.z0 + seg.b
        y0, y1 = x0, x1
        for _ in range(rng.randrange(4)):
            xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            x0, x1 = rng.choice(((x0, xm), (xm, x1)))
            y0, y1 = rng.choice(((y0, ym), (ym, y1)))
        value, error = _patch(seg.v * seg.v, sign, shift, x0, x1, y0, y1)
        ref_value, ref_error = _einsum_patch(
            lambda z, zp: kernel(z, zp, seg.v, a, n), x0, x1, y0, y1)
        assert abs(value - ref_value) <= 1e-14 * ref_value
        assert abs(error - ref_error) <= 1e-14 * ref_value


def test_quadrature_gives_up_at_the_subdivision_cap(monkeypatch):
    # close to its pole entry 0.0202 this square takes 7 subdivisions to
    # reach 1e-10, so a cap of one stops the refinement after the first
    seg = PathSegment(1.0, 0.019, 0.01)
    assert quad_one_plate(seg).subdivisions == 7
    monkeypatch.setattr(oracle, "_QUAD_MAX_SUBDIVISIONS", 1)
    with pytest.raises(ConvergenceError,
                       match="quadrature did not reach tolerance after 1 subdivisions"):
        quad_one_plate(seg)


def test_a_runaway_quadrature_stops_at_the_cap(monkeypatch):
    # an estimate that never shrinks: each split's four patches carry the
    # whole error again, so only the cap ends the refinement. A real
    # subdivision costs about 0.4 ms, and at a cap of 10^6 such a runaway
    # ran for minutes and past 1 GB; at 10^4 it stops within seconds.
    calls = []

    def flat(*args):
        calls.append(args)
        return 1.0, 1.0

    monkeypatch.setattr(oracle, "_patch", flat)
    cap = oracle._QUAD_MAX_SUBDIVISIONS
    assert cap <= 10**4
    with pytest.raises(ConvergenceError,
                       match=f"quadrature did not reach tolerance after {cap} subdivisions"):
        quad_one_plate(PathSegment(1.0, 0.019, 0.01))
    assert len(calls) == 1 + 4 * cap


def test_quad_one_plate_refuses_pole_inside_domain():
    # b beyond 2 v z0 / (1 - v) puts the light cone inside the square
    seg = PathSegment(1.0, 0.05, 0.01)
    with pytest.raises(PoleInsideDomainError) as excinfo:
        quad_one_plate(seg)
    assert excinfo.value.threshold == pytest.approx(0.0202020202, rel=1e-8, abs=0.0)
    # the closed form continues through the pole and still evaluates
    assert one_plate_integral(seg) > 0.0


def test_quad_image_goldens():
    tiny = PathSegment(0.3, 1e-4, 0.01)
    result = quad_image(tiny, 1.0, 1, "reflected")
    assert result.value == pytest.approx(0.26038702322852106, rel=1e-11, abs=0.0)
    assert result.value == pytest.approx(
        reflected_image_integral(tiny, 1.0, 1), rel=1e-12, abs=0.0
    )
    seg = PathSegment(0.3, 0.005, 0.005)
    trans = quad_image(seg, 1.0, 1, "translated")
    assert trans.value == pytest.approx(
        translated_image_integral(seg, 1.0, 1), rel=1e-12, abs=0.0
    )


def test_quad_image_validation_and_refusal():
    seg = PathSegment(0.3, 0.005, 0.005)
    with pytest.raises(DomainError):
        quad_image(seg, 1.0, 1, "bogus")
    with pytest.raises(DomainError):
        quad_image(seg, 1.0, 0, "reflected")
    with pytest.raises(DomainError):
        quad_image(seg, 0.0, 1, "reflected")
    wide = PathSegment(0.3, 0.5, 0.2)
    threshold = pole_entry_reflected(0.3, 0.2, 1.0, 1)
    assert wide.b >= threshold
    with pytest.raises(PoleInsideDomainError):
        quad_image(wide, 1.0, 1, "reflected")


def test_pole_entry_thresholds():
    assert pole_entry_one_plate(1.0, 0.01) == pytest.approx(0.0202020202, rel=1e-8, abs=0.0)
    # reflected images: closer threshold for the n=1 image ahead of the flight
    assert pole_entry_reflected(0.3, 0.01, 1.0, 1) == pytest.approx(
        2.0 * 0.01 * 0.7 / 1.01, rel=1e-12, abs=0.0
    )
    assert pole_entry_reflected(0.3, 0.01, 1.0, -1) == pytest.approx(
        2.0 * 0.01 * 1.3 / 0.99, rel=1e-12, abs=0.0
    )
    assert pole_entry_translated(0.01, 1.0, 2) == pytest.approx(
        2.0 * 2.0 * 0.01 / 1.01, rel=1e-12, abs=0.0
    )
    with pytest.raises(DomainError):
        pole_entry_reflected(0.3, 0.01, 1.0, 0)


def test_deriv_check_reflection():
    report = deriv_check("reflection", 1.0, 1.3, 0.1)
    assert report.converged
    assert report.relative_error < 1e-8
    assert 1.5 < report.observed_order < 2.5


def test_deriv_check_translation():
    report = deriv_check("translation", 0.3, 0.5, 0.1, a=1.0, n=1)
    assert report.converged
    assert report.relative_error < 1e-8
    # the point is ordered before differencing: both sides are symmetric
    assert deriv_check("translation", 0.5, 0.3, 0.1, a=1.0, n=1) == report


@pytest.mark.parametrize("family, square, point", [
    ("reflection", _reflection_square, {}),
    ("translation", _translation_square, {"a": 1.0, "n": 1}),
])
def test_deriv_check_detects_a_square_off_by_a_part_in_1e5(family, square, point):
    def scaled(*args):
        return (1.0 + 1e-5) * square(*args)

    z, z_prime = (1.0, 1.3) if family == "reflection" else (0.3, 0.5)
    assert deriv_check(family, z, z_prime, 0.1, **point).converged
    report = deriv_check(family, z, z_prime, 0.1, square=scaled, **point)
    assert not report.converged
    assert report.relative_error == pytest.approx(1e-5, rel=1e-2)


def test_deriv_check_fails_near_singular_locus():
    # (z, z') chosen so the kernel denominator nearly vanishes:
    # z'(1-v) = z(1+v); the identity cannot hold there and must not report
    # convergence
    report = deriv_check("reflection", 1.0, 1.5, 0.2)
    assert not report.converged
    assert report.relative_error > 1e-3


def test_deriv_check_reports_evaluation_failure_gracefully():
    from casvolt import SingularityError

    def exploding(base, b, v):
        raise SingularityError("synthetic failure")

    report = deriv_check("reflection", 1.0, 1.3, 0.1, square=exploding)
    assert not report.converged
    assert math.isinf(report.relative_error)
    assert "synthetic failure" in report.message


def test_deriv_check_validation():
    with pytest.raises(DomainError):
        deriv_check("bogus", 1.0, 1.3, 0.1)
    with pytest.raises(DomainError):
        deriv_check("translation", 1.0, 1.3, 0.1)  # missing a, n
    with pytest.raises(DomainError):
        deriv_check("translation", 1.0, 1.3, 0.1, a=1.0, n=0)
    # the step is derived from |z - z'|, which is zero on the diagonal
    with pytest.raises(DomainError, match="two distinct points"):
        deriv_check("reflection", 1.3, 1.3, 0.1)
    with pytest.raises(DomainError, match="two distinct points"):
        deriv_check("translation", 0.4, 0.4, 0.1, a=1.0, n=1)


def test_run_verification_passes():
    report = run_verification(seed=12345, sets_per_family=10, grid_points=5)
    assert report.passed
    names = {check.name for check in report.checks}
    assert "quad_one_plate_vs_closed" in names
    assert "quad_reflected_vs_closed" in names
    assert "quad_translated_vs_closed" in names
    assert "deriv_reflection_identity" in names
    assert "deriv_translation_identity" in names
    assert "series_identities_within_tail_bounds" in names
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["seed"] == 12345


@pytest.mark.parametrize("counts", [
    {"sets_per_family": 0}, {"grid_points": 0}, {"sets_per_family": -3},
])
def test_run_verification_refuses_empty_checks(counts):
    # with no cases every check passed vacuously, and an injected fault
    # went unseen
    with pytest.raises(DomainError, match="at least one case"):
        run_verification(seed=12345, **counts)


def test_run_verification_detects_wrong_sign():
    def wrong(base, b, v):
        return -_reflection_square(base, b, v)

    report = run_verification(
        seed=12345, sets_per_family=5, grid_points=3, reflection_override=wrong
    )
    assert not report.passed
    # the wrong square enters the one-plate and reflected quadrature checks,
    # the estimates check built on their rows, and the reflection identity
    failed = {check.name for check in report.checks if not check.passed}
    assert failed == {
        "quad_one_plate_vs_closed",
        "quad_reflected_vs_closed",
        "quad_error_estimates_conservative",
        "deriv_reflection_identity",
    }


def test_run_verification_fails_every_gate_a_nan_reaches():
    # max(0.0, nan) is 0.0 and nan > allowed is false, so a closed form
    # returning nan used to pass both quadrature checks and the estimates
    # check with worst 0.0, and fail the reflection identity with worst 0.0
    report = run_verification(seed=12345, sets_per_family=5, grid_points=3,
                              reflection_override=lambda base, b, v: float("nan"))
    failed = {check.name: check for check in report.checks if not check.passed}
    assert set(failed) == {
        "quad_one_plate_vs_closed",
        "quad_reflected_vs_closed",
        "quad_error_estimates_conservative",
        "deriv_reflection_identity",
    }
    assert all(math.isnan(check.worst) for check in failed.values())
    assert all(not math.isnan(check.worst) for check in report.checks if check.passed)
    assert "deviation nan (gate" in failed["quad_one_plate_vs_closed"].detail
    assert failed["quad_error_estimates_conservative"].detail.startswith(
        "quad_one_plate_vs_closed: deviation nan exceeds estimate")


def test_run_verification_shape():
    # seven checks in a fixed order, each quadrature check over
    # sets_per_family cases and each derivative check over grid_points
    report = run_verification(seed=7, sets_per_family=4, grid_points=3)
    assert [check.name for check in report.checks] == [
        "quad_one_plate_vs_closed",
        "quad_reflected_vs_closed",
        "quad_translated_vs_closed",
        "quad_error_estimates_conservative",
        "deriv_reflection_identity",
        "deriv_translation_identity",
        "series_identities_within_tail_bounds",
    ]
    details = [check.detail for check in report.checks]
    assert all(detail.startswith("4 cases, ") for detail in details[:3])
    assert all(detail.startswith("3 points, ") for detail in details[4:6])
    assert [check["name"] for check in report.to_dict()["checks"]] == [
        check.name for check in report.checks
    ]


@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 + 1e-6])
def test_series_check_fails_a_closed_form_off_by_a_millionth(scale, monkeypatch):
    # each gap sits mid-band between the integral tests from N + 1 and N,
    # 2e-8 wide at N = 10,000; a closed form 1e-6 low stays under the upper
    # bound alone, so it fails on the lower one
    def scaled(series):
        def wrong(*args, **kwargs):
            right = series(*args, **kwargs)
            return oracle.CscSeriesComparison(
                series_value=right.series_value, closed_form=right.closed_form * scale,
                tail_bound=right.tail_bound, terms=right.terms)
        return wrong

    monkeypatch.setattr(oracle, "csc_identity", scaled(oracle.csc_identity))
    monkeypatch.setattr(oracle, "zeta_two_series", scaled(oracle.zeta_two_series))
    report = run_verification(seed=7, sets_per_family=1, grid_points=1)
    failed = [check.name for check in report.checks if not check.passed]
    assert failed == ["series_identities_within_tail_bounds"]
    detail = report.checks[-1].detail
    assert detail.count("below floor") == (5 if scale < 1.0 else 0)
    assert detail.count(" > bound") == (0 if scale < 1.0 else 5)


# At these seeds the reflected closed form used to shift both corners by -a n
# before differencing them, rounding the side of the square at the magnitude
# of a n: 1.7e-13 and 1.9e-13 relative error against a quadrature good to
# 1e-15, which failed quad_error_estimates_conservative (the last two seeds
# failed the same check before the corners kept the exact side).
@pytest.mark.parametrize("seed", [279810, 97803, 529264, 509533])
def test_run_verification_passes_at_former_corner_rounding_seeds(seed):
    report = run_verification(seed=seed)
    assert report.passed, [check.detail for check in report.checks if not check.passed]


@pytest.mark.parametrize("seed", [12345, 1, 2, 3])
def test_run_verification_passes_at_ci_seeds(seed):
    report = run_verification(seed=seed)
    assert report.passed, [check.detail for check in report.checks if not check.passed]


def test_translation_points_keep_both_orderings_off_the_locus():
    # the square's mixed derivative takes the translated kernel at (z, z')
    # and at (z', z); a point whose mirrored kernel lay near its light cone
    # failed the 1e-6 gate (3.6e-6 at the default seed)
    rng = random.Random(12345)
    for _ in range(2000):
        z, z_prime, v, a, n = _sample_translation_point(rng)
        for delta in (z - z_prime, z_prime - z):
            image_sq = (v * (delta - 2.0 * a * n)) ** 2
            assert abs(delta * delta - image_sq) >= _DERIV_MARGIN * max(delta * delta, image_sq)


def test_verification_closed_side_is_the_production_square():
    # on a square whose side z0 + b - z0 rounds to b exactly, verify's
    # closed-form side returns what production returns, bit for bit
    seg, a, n = PathSegment(z0=0.25, b=0.125, v=0.05), 1.5, 2
    assert (seg.z0 + seg.b) - seg.z0 == seg.b
    assert _closed_reflection(seg, seg.z0, _reflection_square) == one_plate_integral(seg)
    assert (_closed_reflection(seg, seg.z0 - a * n, _reflection_square)
            == reflected_image_integral(seg, a, n))
    assert _closed_translated(seg, a, -n) == translated_image_integral(seg, a, -n)

"""f, d log f/dw and q = (d log f/dw) / w of both IGSO3 branches against a
high-precision series."""

import math

import numpy as np
import pytest

from se3diffuse import igso3

mpmath = pytest.importorskip("mpmath")

# Both sides of 1e-4, below which the score used to be cut to 0, and
# 0.0326 and 0.0699, where a = 4 pi w / t of the first image pair is just
# above 0.1 at t = 4 and 8: chi's direct form, used there before its series
# reached a = 1, cancels to about 12 / a^2 ulps.
ANGLES = [0.0, 1e-8, 0.99e-4, 1e-4, 1.01e-4, 1e-3, 0.01, 0.0326, 0.0699, 0.3, 1.0, 1.15,
          1.5, 2.0, 2.9, 3.1, np.pi - 1e-2, np.pi - 3e-3, np.pi - 1e-3, np.pi - 1e-6, np.pi]
# Both sides of the crossover between the image sum and the series, and
# the series out to times where its l >= 1 weights are subnormal or zero.
TIMES = [igso3.T_MIN, 0.0169, 0.1, 0.5, 1.0, 2.25, 4.0, igso3.T_IMAGE,
         float(np.nextafter(igso3.T_IMAGE, np.inf)), 10.0, 20.0, 50.0, 100.0, 709.0, 1e4]


def reference(omega: float, t: float) -> tuple[float, float, float]:
    """f(w, t), d log f/dw and q = (d log f/dw) / w of the character series
    at the double ``omega``; at w = 0, where d log f/dw is 0, q is its limit
    f''(0) / f(0).

    The working precision covers the cancellation down to f(pi, t) ~
    exp(-pi^2 / 2t) with 40 digits to spare, and the sum runs until the
    weights drop below it.
    """
    digits = 40 + math.ceil(math.pi**2 / (2.0 * t) / math.log(10.0))
    with mpmath.workdps(digits):
        w, t = mpmath.mpf(omega), mpmath.mpf(t)
        n_terms = int(mpmath.sqrt(2 * (digits + 10) * mpmath.log(10) / t)) + 5
        f = df = d2f = mpmath.mpf(0)
        sin_half, cos_half = mpmath.sin(w / 2), mpmath.cos(w / 2)
        for ell in range(n_terms):
            weight = (2 * ell + 1) * mpmath.exp(-ell * (ell + 1) * t / 2)
            if w == 0:  # sin((l + 1/2) w) / sin(w/2) = (2l + 1) (1 - l(l + 1) w^2 / 6 + ...)
                f += weight * (2 * ell + 1)
                d2f -= weight * (2 * ell + 1) * ell * (ell + 1) / 3
                continue
            a = ell + mpmath.mpf(1) / 2
            f += weight * mpmath.sin(a * w) / sin_half
            df += weight * (a * mpmath.cos(a * w) * sin_half
                            - cos_half * mpmath.sin(a * w) / 2) / sin_half**2
        if w == 0:
            return float(f), 0.0, float(d2f / f)
        return float(f), float(df / f), float(df / f / w)


@pytest.mark.parametrize("t", TIMES)
def test_density_and_score_match_high_precision_series(t):
    omega = np.array(ANGLES)
    f, q = igso3.f_q(omega, t)
    score = igso3.df_igso3_domega(omega, t) / f
    for i, w in enumerate(ANGLES):
        f_ref, s_ref, q_ref = reference(w, t)
        assert abs(f[i] - f_ref) <= 1e-12 * f_ref, (w, f[i], f_ref)
        # q carries the score's tolerances to w = 0, where the score is 0.
        for got, want in ((score[i], s_ref), (q[i], q_ref)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (w, got, want)
            if t <= 4.0:  # the image sum also keeps small scores, near 0 and pi, to roundoff
                assert abs(got - want) <= 1e-14 * abs(want), (w, got, want)
            elif t <= igso3.T_IMAGE:  # up to the alternating pairs' cancellation
                assert abs(got - want) <= 1e-13 * abs(want), (w, got, want)
            if igso3.T_IMAGE < t <= 100.0:  # and so does the series above it
                assert abs(got - want) <= 1e-15 * abs(want), (w, got, want)


def test_series_terms_cover_every_time_above_the_image_sum():
    # Weights decay faster at larger t, so the first weight left out is
    # largest against the l = 1 weight at T_IMAGE.
    def weight(ell):
        return (2 * ell + 1) * math.exp(-ell * (ell + 1) * igso3.T_IMAGE / 2.0)

    assert weight(igso3._SERIES_TERMS) < np.finfo(float).eps * weight(1)


def test_branches_meet_at_the_crossover():
    grid = np.linspace(0.0, np.pi, 200)
    below = igso3.T_IMAGE
    above = float(np.nextafter(below, np.inf))
    f_below, f_above = igso3.f_igso3(grid, below), igso3.f_igso3(grid, above)
    assert np.abs(f_above / f_below - 1.0).max() < 1e-14
    df_below = igso3.df_igso3_domega(grid, below)
    df_above = igso3.df_igso3_domega(grid, above)
    # df is 0.002 at most here: its roundoff is on the scale of f, about 1.
    assert np.abs(df_above - df_below).max() < 1e-14 * f_below.max()


@pytest.mark.parametrize("t", [0.05, 1.0, 2.0, 10.0])
def test_image_sum_is_periodic_and_even_like_the_series(t):
    omega = np.array([0.3, 1.7, 3.0])
    f, df = igso3.f_igso3(omega, t), igso3.df_igso3_domega(omega, t)
    for shifted, sign in ((2.0 * np.pi - omega, -1.0), (omega + 2.0 * np.pi, 1.0),
                          (-omega, -1.0)):
        assert np.allclose(igso3.f_igso3(shifted, t), f, rtol=1e-12, atol=0.0)
        assert np.allclose(igso3.df_igso3_domega(shifted, t), sign * df,
                           rtol=1e-10, atol=1e-12 * np.abs(df).max())


@pytest.mark.parametrize("t", [igso3.T_MIN, 1.0, 2.25])
def test_uniform_grid_matches_high_precision_series(t):
    # At the angles of a uniform grid the image sum's f keeps its relative
    # precision past the series' roundoff floor, and the score its
    # relative precision at small angles, where the termwise series cancels.
    grid = np.linspace(0.0, np.pi, 1000)
    idx = np.unique(np.geomspace(1, len(grid) - 1, 25).astype(int))
    for w, f, df in zip(grid[idx], *igso3.f_df(grid[idx], t)):
        f_ref, s_ref, _ = reference(float(w), t)
        assert abs(f - f_ref) <= 1e-12 * f_ref, (w, f, f_ref)
        assert abs(df / f - s_ref) <= 1e-14 * abs(s_ref), (w, df / f, s_ref)


@pytest.mark.parametrize("t", [8.5, 10.0, 20.0])
def test_series_small_angle_score_keeps_relative_precision(t):
    # The cosine sum's terms all have one sign at small angles, so nothing
    # cancels; the termwise derivative of sin((l + 1/2) w) / sin(w/2) loses
    # 1.5e-9 of the score here.
    omega = np.geomspace(1e-4, 1e-2, 9)
    score = igso3.df_igso3_domega(omega, t) / igso3.f_igso3(omega, t)
    for w, s in zip(omega, score):
        s_ref = reference(float(w), t)[1]
        assert abs(s - s_ref) <= 1e-15 * abs(s_ref), (w, s, s_ref)

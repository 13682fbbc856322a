import json
import math

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.spatial import ConvexHull

from asynctrig import partition
from asynctrig.certificates import decay_forms
from asynctrig.matrix_core import sym_eig_bounds
from asynctrig.partition import (
    RegionForms,
    make_partition,
    partition_to_dict,
    region_multipliers,
    region_of,
)
from helpers import SINGULAR_GRAM, bisect_states, guarded_directions, pair_multiplier, unfiltered_region_multipliers


def test_dim2_equiangular_sectors():
    N = 15
    regions = make_partition(2, N)
    assert len(regions) == N
    theta = math.pi / (2 * N) * 1.05
    for c, reg in enumerate(regions):
        assert reg.index == c
        assert reg.half_angle == pytest.approx(theta)
        ang = math.pi * c / N
        np.testing.assert_allclose(reg.direction, [math.cos(ang), math.sin(ang)], atol=1e-15)
        expect = np.outer(reg.direction, reg.direction) - math.cos(theta) ** 2 * np.eye(2)
        np.testing.assert_allclose(reg.Q, expect, atol=1e-15)


def test_dim2_covers_circle_and_symmetric():
    regions = make_partition(2, 8)
    rng = np.random.default_rng(777)
    for _ in range(500):
        ang = rng.uniform(0, 2 * math.pi)
        x = np.array([math.cos(ang), math.sin(ang)]) * rng.uniform(0.1, 50.0)
        idx = region_of(x, regions)
        assert x @ regions[idx].Q @ x >= -1e-12
        # double cones are even forms
        assert region_of(-x, regions) == idx


def test_region_of_prefers_lowest_index():
    regions = make_partition(2, 6)
    # a direction inside region 0 also lies in the overlap margin of nothing
    # lower, so membership in several regions must resolve to the smallest
    x = regions[2].direction * 3.0
    assert region_of(x, regions) == 2
    assert region_of(regions[0].direction, regions) == 0


def test_region_of_is_scale_invariant():
    # cones are invariant under scaling, so a state's region must not change
    # when it shrinks toward the origin
    regions = make_partition(4, 15)
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(200, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    found = [region_of(x, regions) for x in X]
    assert sum(c != 0 for c in found) > 100
    assert [region_of(1e-7 * x, regions) for x in X] == found


def test_higher_dim_frozen_half_angle():
    regions = make_partition(4, 15)
    assert len(regions) == 15
    assert regions[0].half_angle == pytest.approx(0.9845769759044732, abs=1e-12)
    for reg in regions:
        assert np.linalg.norm(reg.direction) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", range(3, 13))
def test_directions_equal_the_guarded_loop(dim):
    # bit for bit, signed zeros included: the clip, the skip and the sign threshold never act
    for N in (1, 2, 3, 15, 64, 500):
        assert partition._directions(dim, N).tobytes() == guarded_directions(dim, N).tobytes()


def test_halton_points_need_no_clip_and_no_skip():
    # every coordinate lies in (0, 1), so ndtri is finite; only the base-2
    # coordinate of point 1 is 1/2, so no point of dim >= 3 maps to g = 0
    bases = partition._primes(8)
    u = np.array([[partition._halton(i, b) for b in bases] for i in range(1, 5001)])
    assert ((u > 0) & (u < 1)).all()
    assert np.argwhere(u == 0.5).tolist() == [[0, 0]]
    assert not (u[:, :3] == 0.5).all(axis=1).any()


def test_higher_dim_coverage_fresh_seed():
    regions = make_partition(4, 15)
    rng = np.random.default_rng(20240818)  # not the construction seed
    X = rng.normal(size=(2000, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    for x in X:
        idx = region_of(x, regions)
        assert x @ regions[idx].Q @ x >= -1e-12


def _deepest_holes(regions):
    """Facet normals of the hull of +/-v and their angles to the nearest +/-v.

    Every direction passes through some facet, and no direction is farther
    from all of +/-v than the normal of the facet it passes through.
    """
    vs = np.array([reg.direction for reg in regions])
    hull = ConvexHull(np.vstack([vs, -vs]))
    return hull.equations[:, :-1], np.arccos(np.minimum(1.0, -hull.equations[:, -1]))


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 8])
@pytest.mark.parametrize("count", ["dim", 15, 30])
def test_half_angle_reaches_the_exact_covering_radius(dim, count):
    N = dim if count == "dim" else count
    regions = make_partition(dim, N)
    normals, angles = _deepest_holes(regions)
    assert angles.max() <= regions[0].half_angle
    # and each candidate hole is inside a cone, not just near one
    forms = np.einsum("hi,cij,hj->hc", normals, np.array([reg.Q for reg in regions]), normals)
    assert (forms.max(axis=1) >= 0).all()


def test_deepest_hole_of_six_dim_partition_is_covered():
    # the covering radius of these 15 directions is 68.294 deg, just above
    # the 68.259 deg a 100k-sample check settled on; at the deepest hole
    # every cone's form was negative
    regions = make_partition(6, 15)
    normals, angles = _deepest_holes(regions)
    hole = normals[np.argmax(angles)]
    c = region_of(hole, regions)
    assert c is not None
    assert hole @ regions[c].Q @ hole >= 0


@pytest.mark.parametrize("N", [15, 30])
def test_partition_above_six_dims_leaves_no_lookup_miss(N):
    # the Halton bases are the first dim primes; dim 8 needs two past 13
    regions = make_partition(8, N)
    X = np.random.default_rng(8).normal(size=(20_000, 8))
    assert sum(region_of(x, regions) is None for x in X) == 0


def test_degenerate_cap_covers_everything():
    # too few cones for dim 4 forces the half-angle to the pi/2 cap, where
    # Q = vv' is positive semidefinite and every state is a member
    regions = make_partition(4, 3)
    assert regions[0].half_angle == pytest.approx(math.pi / 2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.normal(size=4)
        assert region_of(x, regions) == 0
    # states exactly orthogonal to the capped direction, where x'Qx is 0
    assert region_of(np.array([0.0, 1.0]), make_partition(2, 1)) == 0
    v = regions[0].direction
    x = np.eye(4)[np.argmin(np.abs(v))]  # the first Halton coordinate maps to a zero entry of v
    assert v @ x == 0.0
    assert region_of(x, regions) == 0


@pytest.mark.parametrize("axis", range(4))
def test_a_state_just_outside_a_cone_is_looked_up_in_a_cone_holding_it(prepared_offline_unperturbed, axis):
    # bisect from cone 0's direction toward one orthogonal to it until
    # x'Q_0 x, as region_of computes it, is just below 0 (about -1e-17 |x|^2):
    # a tolerance relative to |x|^2 would put x in region 0, whose horizons
    # are certified on the cone only
    regions = prepared_offline_unperturbed[1].regions
    v = regions[0].direction
    form = regions[0].Q
    x = bisect_states(v, np.eye(len(v))[axis] - v[axis] * v, lambda x: x.dot(form).dot(x) >= 0)
    assert -1e-15 < x.dot(form).dot(x) / x.dot(x) < 0
    c = region_of(x, regions)
    assert c is not None and c != 0
    assert x.dot(regions[c].Q).dot(x) >= 0


def test_Q_eigenstructure():
    # (2, 1) is the one-cone plane partition, whose half-angle is capped at pi/2
    for dim, N in [(4, 15), (2, 1), (2, 15)]:
        for reg in make_partition(dim, N)[:3]:
            w = np.sort(np.linalg.eigvalsh(reg.Q))
            c2 = math.cos(reg.half_angle) ** 2
            np.testing.assert_allclose(w[: dim - 1], [-c2] * (dim - 1), atol=1e-12)
            assert w[dim - 1] == pytest.approx(1.0 - c2, abs=1e-12)


def test_make_partition_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_partition(2, 0)
    with pytest.raises(ValueError):
        make_partition(1, 4)


def _decay_multiplier(Phi, P, bbar, Q_c):
    """The region test of one horizon's decay form Phi'P Phi - bbar P."""
    return region_multipliers(decay_forms(P, Phi[None], [bbar]), Q_c)[0]


def test_sprocedure_feasible_and_not():
    P = np.eye(2)
    Phi = np.diag([1.05, 0.2])
    v2 = np.array([0.0, 1.0])
    Q_away = np.outer(v2, v2) - math.cos(math.pi / 6) ** 2 * np.eye(2)
    eps = _decay_multiplier(Phi, P, 1.0, Q_away)
    assert eps > 0
    S = Phi.T @ P @ Phi - P + eps * Q_away
    assert max(np.linalg.eigvalsh(S)) <= 1e-9
    # cone containing the expanding axis cannot be certified
    v1 = np.array([1.0, 0.0])
    Q_on = np.outer(v1, v1) - math.cos(math.pi / 6) ** 2 * np.eye(2)
    assert np.isnan(_decay_multiplier(Phi, P, 1.0, Q_on))


def test_sprocedure_contractive_needs_tiny_multiplier():
    rng = np.random.default_rng(3)
    P = np.eye(3)
    Phi = 0.5 * rng.normal(size=(3, 3)) / 3.0
    v = np.array([1.0, 0.0, 0.0])
    Q = np.outer(v, v) - math.cos(0.4) ** 2 * np.eye(3)
    eps = _decay_multiplier(Phi, P, 1.0, Q)
    assert eps > 0
    S = Phi.T @ P @ Phi - P + eps * Q
    assert max(np.linalg.eigvalsh(S)) <= 1e-9


def test_sprocedure_finds_multipliers_outside_any_fixed_range():
    # Phi'P Phi - bbar P = diag(1, -2) and Q = diag(-1e-9, 1e-9): the only
    # multipliers are eps in [1e9, 2e9]
    Phi = np.diag([2.0, 1.0])
    P = np.eye(2)
    Q = np.diag([-1e-9, 1e-9])
    eps = _decay_multiplier(Phi, P, 3.0, Q)
    assert 1e9 <= eps <= 2e9
    _, hi = sym_eig_bounds(Phi.T @ P @ Phi - 3.0 * P + eps * Q)
    assert hi <= 1e-9
    # and none at all once the interval is closed off
    assert np.isnan(_decay_multiplier(Phi, P, 3.0, np.diag([-1e-9, 3e-9])))


def test_region_recheck_rejects_what_only_the_full_matrix_fails():
    # full is S with one extra diagonal entry: -1 leaves the verdict to S,
    # +1 makes lambda_max of full exceed tol whatever the multiplier, so the
    # recheck alone must reject that one horizon
    P = np.eye(2)
    phis = np.array([np.diag([0.5, 0.5]), np.diag([1.05, 0.2]), np.diag([0.9, 0.3])])
    v2 = np.array([0.0, 1.0])
    Q = np.outer(v2, v2) - math.cos(math.pi / 6) ** 2 * np.eye(2)
    forms = decay_forms(P, phis, [1.0, 1.0, 1.0])
    pencil = region_multipliers(forms, Q)
    assert not np.isnan(pencil).any()
    corner = np.array([-1.0, 1.0, -1.0])
    full = np.zeros((3, 3, 3))
    full[:, :2, :2] = forms.S
    full[:, 2, 2] = corner
    stricter = RegionForms(forms.index, forms.S, full, forms.sign)
    np.testing.assert_array_equal(region_multipliers(stricter, Q), np.where(corner > 0, np.nan, pencil))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_region_entry_just_above_zero_is_not_certified(sign):
    # S = delta I - sign Q_c: lambda_max(S + eps sign Q_c) = delta + lambda_max((eps - 1) sign Q_c)
    # is least at eps = 1, where it is delta.  delta = +5e-10 is on the wrong
    # side of the inequality, however small; -5e-10 is certified near eps = 1
    Q = make_partition(4, 15)[0].Q
    verdicts = []
    for delta in (5e-10, -5e-10):
        S = delta * np.eye(4) - sign * Q
        assert sym_eig_bounds(S + sign * Q)[1] == pytest.approx(delta, rel=1e-5)
        verdicts.append(region_multipliers(RegionForms(np.arange(1), S[None], S[None], sign), Q)[0])
    assert np.isnan(verdicts[0])
    assert verdicts[1] == pytest.approx(1.0, abs=1e-8)


def _random_cones(rng, count: int, d: int) -> np.ndarray:
    """count cone forms v v' - cos^2(theta) I around random unit axes; the last three have
    theta = 1e-6, pi/2 - 1e-6 and the pi/2 cap."""
    axes = rng.normal(size=(count, d))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    thetas = np.append(rng.uniform(0.05, 1.5, count - 3), [1e-6, math.pi / 2 - 1e-6, math.pi / 2])
    cos2 = np.cos(thetas) ** 2
    return axes[:, :, None] * axes[:, None, :] - cos2[:, None, None] * np.eye(d)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_axis_rejection_drops_only_pairs_the_pencil_rejects(sign, monkeypatch):
    # random symmetric forms, from negative definite to indefinite, against
    # random cones, the thin and the capped ones included: every pair the
    # rejection keeps from the pencil is NaN on the unfiltered path too
    rng = np.random.default_rng(19 if sign > 0 else 20)
    d = 4
    Q = _random_cones(rng, 12, d)
    G = rng.normal(size=(200, d, d))
    S = 0.5 * (G + np.swapaxes(G, 1, 2)) - rng.uniform(-1, 3, size=(200, 1, 1)) * np.eye(d)
    forms = RegionForms(np.arange(len(S)), S, S, sign)
    rows = []
    pencil = partition.sprocedure_multipliers

    def counted(S, Q, ends):
        rows.append(len(S))
        return pencil(S, Q, ends)

    monkeypatch.setattr(partition, "sprocedure_multipliers", counted)
    eps = region_multipliers(forms, Q)
    assert eps.shape == (12, len(S))
    assert 0 < rows[0] < eps.size  # the rejection dropped pairs, and kept some
    np.testing.assert_array_equal(eps, [unfiltered_region_multipliers(forms, q) for q in Q])
    assert 0 < np.count_nonzero(~np.isnan(eps)) < rows[0]  # the pencil certified some survivors, not all


def test_singular_pencil_pairs_fall_back_to_the_generalized_pencil():
    # knife-edge forms S = -c (I - u u') + delta u u', u the vector the axis
    # rejection reads, |delta| <= eps_mach c: every one survives the
    # rejection on its own cone, and S is singular to working precision.  Where LU finds one exactly singular, the batched solve
    # raises; the call must then still decide every pair, as the one-pair
    # generalized-pencil oracle does.  Regular random forms ride along, so
    # the fallback certifies some pairs too.
    d = 4
    fell_back = 0
    for trial in range(24):
        sign = 1.0 if trial % 2 == 0 else -1.0
        rng = np.random.default_rng(trial)
        Q = _random_cones(rng, 8, d)
        u = np.linalg.eigh(sign * Q)[1][:, :, -1]
        c = 10 ** rng.uniform(0, 6, size=(3, len(Q)))
        delta = rng.uniform(-1, 1, size=c.shape) * np.finfo(float).eps * c
        uu = u[:, :, None] * u[:, None, :]
        knife = -c[..., None, None] * (np.eye(d) - uu) + delta[..., None, None] * uu
        G = rng.normal(size=(16, d, d))
        regular = 0.5 * (G + np.swapaxes(G, 1, 2)) - rng.uniform(-1, 3, size=(16, 1, 1)) * np.eye(d)
        S = np.concatenate([knife.reshape(-1, d, d), regular])
        forms = RegionForms(np.arange(len(S)), S, S, sign)
        eps = region_multipliers(forms, Q)
        try:
            np.linalg.solve(S, np.broadcast_to(np.eye(d), S.shape))
            continue  # not exactly singular: the batched path decided, and its ends are its own
        except np.linalg.LinAlgError:
            fell_back += 1
        oracle = [
            [pair_multiplier(RegionForms(np.arange(1), S[k : k + 1], S[k : k + 1], sign), q) is None for k in range(len(S))]
            for q in Q
        ]
        np.testing.assert_array_equal(np.isnan(eps), oracle)
        assert np.count_nonzero(~np.isnan(eps)) > 0
    assert fell_back >= 5


def test_partition_serialization_round_trip():
    regions = make_partition(4, 15)
    data = json.loads(json.dumps(partition_to_dict(regions)))  # what `asynctrig partition` writes, read back
    assert data["dim"] == 4 and data["count"] == 15
    assert len(data["regions"]) == len(regions)
    for a, b in zip(regions, data["regions"]):
        assert a.index == b["index"]
        assert a.half_angle == b["half_angle"]
        np.testing.assert_array_equal(a.direction, b["direction"])
        np.testing.assert_array_equal(a.Q, b["Q"])


def test_region_recheck_rejects_an_exactly_singular_full_matrix():
    # the reduced form -I is certified on every cone, but the full matrix adds the
    # block -X X', exactly singular, whose top eigenvalue eigvalsh reads just below 0
    Qs = np.array([reg.Q for reg in make_partition(2, 3)])
    full = block_diag(-np.eye(2), -SINGULAR_GRAM)
    assert -1e-14 < np.linalg.eigvalsh(full)[-1] < 0.0
    assert np.isnan(region_multipliers(RegionForms(np.arange(1), -np.eye(2)[None], full[None], 1.0), Qs)).all()
    shifted = full - 1e-6 * np.eye(6)
    assert not np.isnan(region_multipliers(RegionForms(np.arange(1), -np.eye(2)[None], shifted[None], 1.0), Qs)).any()

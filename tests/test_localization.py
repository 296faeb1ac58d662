import numpy as np
import pytest

from nearmimo.errors import DegenerateGeometryError
from nearmimo.geometry import build_upa, partition
from nearmimo.localization import LocationEstimate, Ray, ls_intersect, ray_misfit

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2


def rays_toward(origins, target, direction_noise=0.0, rng=None):
    rays = []
    for o in origins:
        d = np.asarray(target, dtype=float) - np.asarray(o, dtype=float)
        d = d / np.linalg.norm(d)
        if direction_noise > 0:
            d = d + direction_noise * rng.standard_normal(3)
        rays.append(Ray(origin=o, direction=d))
    return rays


def minimize_misfit_numerically(rays, start):
    """Independent oracle: derivative-free minimization of the ray misfit.

    Powell's conjugate-direction search solves an exact quadratic to
    high precision using function values only.
    """
    from scipy.optimize import minimize

    res = minimize(
        lambda p: ray_misfit(p, rays), x0=np.asarray(start, dtype=float),
        method="Powell", options={"xtol": 1e-12, "ftol": 1e-15, "maxiter": 10000},
    )
    return res.x


def paper_tile_centers():
    geom = build_upa(16, 48, HALF, HALF, (0, 0, 0))
    return np.stack([t.geometry.center for t in partition(geom, 2, 4).tiles])


class TestLsIntersect:
    def test_exact_orthogonal_intersection(self):
        rays = [
            Ray(origin=(0, 0, 0), direction=(1, 0, 0)),
            Ray(origin=(10, -10, 0), direction=(0, 1, 0)),
        ]
        est = ls_intersect(rays)
        np.testing.assert_allclose(est.point, [10, 0, 0], atol=1e-12)
        assert est.residual < 1e-20

    def test_parallel_rays_degenerate(self):
        rays = [
            Ray(origin=(0, 0, 0), direction=(1, 0, 0)),
            Ray(origin=(0, 1, 0), direction=(1, 0, 0)),
        ]
        with pytest.raises(DegenerateGeometryError):
            ls_intersect(rays)

    def test_needs_two_rays(self):
        with pytest.raises(ValueError):
            ls_intersect([Ray(origin=(0, 0, 0), direction=(1, 0, 0))])

    def test_paper_geometry_exact_rays(self):
        target = np.array([8.0, 1.0, -1.0])
        est = ls_intersect(rays_toward(paper_tile_centers(), target))
        assert np.linalg.norm(est.point - target) < 1e-9

    def test_closed_form_matches_numeric_minimizer_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            origins = rng.uniform(-1, 1, size=(5, 3))
            target = rng.uniform(2, 10, size=3)
            rays = rays_toward(origins, target, direction_noise=0.005, rng=rng)
            est = ls_intersect(rays)
            numeric = minimize_misfit_numerically(rays, start=target)
            assert np.linalg.norm(est.point - numeric) < 1e-6
            assert est.residual <= ray_misfit(numeric, rays) + 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        origins = rng.uniform(-1, 1, size=(4, 3))
        target = np.array([5.0, 1.0, -2.0])
        rays = rays_toward(origins, target, direction_noise=0.05, rng=rng)
        shift = np.array([3.0, -7.0, 2.0])
        shifted = [Ray(origin=r.origin + shift, direction=r.direction) for r in rays]
        a = ls_intersect(rays).point
        b = ls_intersect(shifted).point
        np.testing.assert_allclose(b, a + shift, atol=1e-10)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        origins = rng.uniform(-1, 1, size=(4, 3))
        target = np.array([5.0, 1.0, -2.0])
        rays = rays_toward(origins, target, direction_noise=0.05, rng=rng)
        # a fixed rotation about an arbitrary axis
        from scipy.spatial.transform import Rotation
        rot = Rotation.from_rotvec([0.3, -0.5, 0.8]).as_matrix()
        rotated = [
            Ray(origin=rot @ r.origin, direction=rot @ r.direction) for r in rays
        ]
        a = ls_intersect(rays).point
        b = ls_intersect(rotated).point
        np.testing.assert_allclose(b, rot @ a, atol=1e-10)

    def test_local_minimality(self):
        rng = np.random.default_rng(3)
        origins = rng.uniform(-1, 1, size=(6, 3))
        target = np.array([6.0, -1.0, 0.5])
        rays = rays_toward(origins, target, direction_noise=0.03, rng=rng)
        est = ls_intersect(rays)
        for _ in range(100):
            offset = rng.standard_normal(3) * 1e-3
            assert est.residual <= ray_misfit(est.point + offset, rays) + 1e-15

    def test_condition_number_reported(self):
        est = ls_intersect(rays_toward(paper_tile_centers(), (8.0, 1.0, -1.0)))
        assert isinstance(est, LocationEstimate)
        assert est.condition >= 1.0

    def test_direction_normalized_by_constructor(self):
        ray = Ray(origin=(0, 0, 0), direction=(0, 0, 5.0))
        np.testing.assert_allclose(ray.direction, [0, 0, 1])

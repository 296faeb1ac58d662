import numpy as np
import pytest
from helpers import planar_far_field_steering, wave_vector

from nearmimo.channel import (
    PathParams,
    Scene,
    _spherical_wave,
    far_field_steering,
    los_channel,
    near_field_steering,
    synthesize,
)
from nearmimo.errors import SingularGeometryError
from nearmimo.geometry import build_ula, build_upa
from nearmimo.matfile import load_matrix, save_matrix

WAVELENGTH = 299792458.0 / 6.8e9


def _single(center):
    return build_upa(1, 1, 0.01, 0.01, center)


class TestLosChannel:
    def test_scalar_entry(self):
        h = los_channel(_single((0, 0, 0)), _single((10, 0, 0)), WAVELENGTH)
        expected = 0.1 * np.exp(-2j * np.pi * 10.0 / WAVELENGTH)
        np.testing.assert_allclose(h[0, 0], expected, rtol=1e-14)

    def test_full_wavelength_phase_wrap(self):
        h = los_channel(_single((0, 0, 0)), _single((WAVELENGTH, 0, 0)), WAVELENGTH)
        assert abs(np.angle(h[0, 0])) < 1e-9
        assert abs(h[0, 0]) == pytest.approx(1.0 / WAVELENGTH, rel=1e-14)

    def test_swap_transposes(self):
        bs = build_upa(3, 2, 0.02, 0.02, (0, 0, 0))
        ue = build_ula(4, 0.02, (5, 1, -1))
        np.testing.assert_allclose(
            los_channel(bs, ue, WAVELENGTH),
            los_channel(ue, bs, WAVELENGTH).T,
        )

    def test_entry_magnitudes_are_reciprocal_distance(self):
        bs = build_upa(2, 2, 0.03, 0.03, (0, 0, 0))
        ue = build_ula(2, 0.02, (4, 0.5, -0.5))
        h = los_channel(bs, ue, WAVELENGTH)
        for m in range(4):
            for n in range(2):
                r = np.linalg.norm(bs.positions[m] - ue.positions[n])
                assert abs(h[m, n]) == pytest.approx(1.0 / r, rel=1e-14)

    def test_coincident_antennas_rejected(self):
        with pytest.raises(SingularGeometryError):
            los_channel(_single((0, 0, 0)), _single((0, 0, 0)), WAVELENGTH)
        # 40 row blocks of 4 rows, the last of 3, whose last row sits on a point
        rng = np.random.default_rng(6)
        antennas, points = rng.uniform(-1.0, 1.0, (159, 3)), rng.uniform(2.0, 9.0, (4000, 3))
        antennas[-1] = points[0]
        with pytest.raises(SingularGeometryError):
            _spherical_wave(antennas, points, WAVELENGTH, divide=True)


class TestNearFieldSteering:
    def test_single_antenna_unit_modulus(self):
        v = near_field_steering(_single((0, 0, 0)), (3, 1, 2), WAVELENGTH)
        assert v.shape == (1,)
        assert abs(abs(v[0]) - 1.0) < 1e-14

    def test_boresight_symmetry(self):
        geom = build_upa(5, 7, 0.02, 0.02, (0, 0, 0))
        v = near_field_steering(geom, (8.0, 0, 0), WAVELENGTH)
        np.testing.assert_allclose(v, v[::-1], rtol=1e-12)

    def test_matches_per_antenna_evaluation(self):
        geom = build_upa(2, 2, 0.022, 0.022, (0, 0, 0))
        src = np.array([5.0, 0.1, -0.2])
        v = near_field_steering(geom, src, WAVELENGTH)
        for m in range(4):
            r = np.linalg.norm(geom.positions[m] - src)
            # tolerance: one-ulp distance differences amplify by 2*pi*r/lambda
            np.testing.assert_allclose(v[m], np.exp(-2j * np.pi * r / WAVELENGTH), atol=1e-11)

    def test_los_column_is_scaled_steering(self):
        bs = build_upa(4, 3, 0.02, 0.02, (0, 0, 0))
        ue = build_ula(2, 0.02, (6, -1, 0.5))
        h = los_channel(bs, ue, WAVELENGTH)
        for n in range(2):
            v = near_field_steering(bs, ue.positions[n], WAVELENGTH)
            r = np.linalg.norm(bs.positions - ue.positions[n], axis=1)
            np.testing.assert_allclose(h[:, n], v / r, rtol=1e-13)


class TestFarFieldSteering:
    def test_zero_cosine_all_ones(self):
        np.testing.assert_allclose(far_field_steering(8, 0.01, 0.0, WAVELENGTH), np.ones(8))

    def test_center_entry_of_odd_array_is_one(self):
        v = far_field_steering(9, 0.013, 0.77, WAVELENGTH)
        np.testing.assert_allclose(v[4], 1.0, atol=1e-15)

    def test_far_field_limit_of_spherical_steering(self):
        # 8x8 half-wavelength tile, source at 200 m with direction cosines
        # (sinφ sinθ, cosθ) = (0.5, 0.5); Fresnel residual stays < 0.01 rad.
        d = WAVELENGTH / 2
        geom = build_upa(8, 8, d, d, (0, 0, 0))
        theta = np.arccos(0.5)
        phi = np.arcsin(0.5 / np.sin(theta))
        r = 200.0
        src = r * wave_vector(theta, phi)
        near = near_field_steering(geom, src, WAVELENGTH)
        far = np.exp(-2j * np.pi * r / WAVELENGTH) * planar_far_field_steering(
            8, 8, d, d, 0.5, 0.5, WAVELENGTH
        )
        phase_err = np.abs(np.angle(near * far.conj()))
        assert phase_err.max() < 0.01

    def test_fresnel_residual_decays_with_range(self):
        # the plane-wave mismatch is the aperture^2/(lambda r) Fresnel
        # term, so doubling the range should halve the residual
        d = WAVELENGTH / 2
        geom = build_upa(8, 8, d, d, (0, 0, 0))
        theta = np.arccos(0.3)
        phi = np.arcsin(0.2 / np.sin(theta))
        far = planar_far_field_steering(8, 8, d, d, 0.2, 0.3, WAVELENGTH)

        def residual(r):
            src = r * wave_vector(theta, phi)
            near = near_field_steering(geom, src, WAVELENGTH)
            gamma = np.exp(-2j * np.pi * r / WAVELENGTH)
            return np.abs(np.angle(near * (gamma * far).conj())).max()

        ratio = residual(100.0) / residual(200.0)
        assert ratio == pytest.approx(2.0, rel=0.05)


class TestSynthesize:
    def _scene(self, paths=()):
        bs = build_upa(8, 16, WAVELENGTH / 2, WAVELENGTH / 2, (0, 0, 0))
        ue = build_ula(2, WAVELENGTH / 2, (8, 1, -1))
        return Scene(bs=bs, ue=ue, wavelength=WAVELENGTH, paths=tuple(paths))

    def test_los_only(self):
        real = synthesize(self._scene(), rng_seed=0)
        np.testing.assert_array_equal(real.h, real.h_los)
        np.testing.assert_array_equal(real.h_nlos, 0)

    def test_near_field_los_is_full_column_rank(self):
        bs = build_upa(16, 48, WAVELENGTH / 2, WAVELENGTH / 2, (0, 0, 0))
        ue = build_ula(4, WAVELENGTH / 2, (8, 1, -1))
        real = synthesize(Scene(bs=bs, ue=ue, wavelength=WAVELENGTH), rng_seed=0)
        s = np.linalg.svd(real.h, compute_uv=False)
        assert s.size == 4
        assert s[-1] > 1e-12 * np.linalg.norm(real.h)

    def test_zero_gain_path_leaves_los(self):
        path = PathParams(position=np.array([4.0, 2.0, 0.0]), aod=0.3, gain=0.0)
        real = synthesize(self._scene([path]), rng_seed=1)
        np.testing.assert_array_equal(real.h, real.h_los)

    def test_decomposition_is_exact(self):
        paths = [PathParams(position=np.array([4.0, 2.0, 0.0]), aod=0.3)]
        real = synthesize(self._scene(paths), rng_seed=2)
        np.testing.assert_array_equal(real.h, real.h_los + real.h_nlos)

    def test_same_seed_bit_identical(self):
        paths = [PathParams(position=np.array([4.0, -1.0, 0.5]), aod=-0.2)]
        a = synthesize(self._scene(paths), rng_seed=42)
        b = synthesize(self._scene(paths), rng_seed=42)
        np.testing.assert_array_equal(a.h, b.h)

    def test_nlos_norm_linear_in_gain(self):
        pos = np.array([4.0, 2.0, 0.0])
        r1 = synthesize(self._scene([PathParams(position=pos, aod=0.3, gain=0.1)]), 0)
        r2 = synthesize(self._scene([PathParams(position=pos, aod=0.3, gain=0.2)]), 0)
        n1 = np.linalg.norm(r1.h_nlos, "fro")
        n2 = np.linalg.norm(r2.h_nlos, "fro")
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_drawn_gains_respect_power_ratio(self):
        paths = [
            PathParams(position=np.array([4.0, 2.0, 0.0]), aod=0.3),
            PathParams(position=np.array([5.0, -2.0, -0.5]), aod=-0.6),
        ]
        # average over seeds: NLoS power should sit ~20 dB below LoS
        ratios = []
        for seed in range(300):
            real = synthesize(self._scene(paths), seed)
            ratios.append(
                np.linalg.norm(real.h_nlos, "fro") ** 2
                / np.linalg.norm(real.h_los, "fro") ** 2
            )
        mean_db = 10 * np.log10(np.mean(ratios))
        assert mean_db == pytest.approx(-20.0, abs=1.5)


def test_matrix_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    h = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    path = tmp_path / "h.cmx"
    save_matrix(path, h, wavelength=WAVELENGTH)
    loaded, wl = load_matrix(path)
    np.testing.assert_array_equal(loaded, h)
    assert wl == WAVELENGTH


@pytest.mark.parametrize("raw", [b"not a matrix", b"CMX1abc"], ids=["bad-magic", "short-header"])
def test_matrix_file_rejects_garbage(tmp_path, raw):
    path = tmp_path / "bad.cmx"
    path.write_bytes(raw)
    with pytest.raises(ValueError):
        load_matrix(path)

import numpy as np

from qnls.profiles import BAND_MODES, band_limited_pair
from qnls.spectral import cutoff


def test_band_limited_pair_matches_plane_wave_sum():
    seed, nx, nt, lx, lt = 3, 16, 8, 32.0, 16.0
    rng = np.random.default_rng(seed)
    shape = (2 * BAND_MODES + 1, 2 * BAND_MODES + 1)
    coefs = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2)]
    x = -lx / 2 + (lx / nx) * np.arange(nx)
    t = -lt / 2 + (lt / nt) * np.arange(nt)
    modes = range(-BAND_MODES, BAND_MODES + 1)
    for field, coef in zip(band_limited_pair(seed, nx, nt, lx, lt), coefs):
        ref = np.zeros((nx, nt), dtype=complex)
        for ik, k in enumerate(modes):
            for im, m in enumerate(modes):
                ref += coef[ik, im] * np.exp(1j * (2 * np.pi * k / lx * x[:, None]
                                                   + 2 * np.pi * m / lt * t[None, :]))
        ref *= cutoff(t, lt / 6.0)[None, :]
        assert (field.x0, field.t0) == (x[0], t[0])
        assert np.max(np.abs(field.samples - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_band_limited_pair_doubling_reuses_coefficients():
    for coarse, fine in zip(band_limited_pair(7, 64, 64, 32.0, 16.0),
                            band_limited_pair(7, 128, 128, 32.0, 16.0)):
        np.testing.assert_allclose(fine.samples[::2, ::2], coarse.samples,
                                   rtol=0, atol=1e-13 * np.max(np.abs(coarse.samples)))

"""Full-grid continuous wavelet transform (oracle for ``CWT.transform``)."""

import numpy as np

from repro.dsp.cwt import CWT


def transform_reference(cwt: CWT, traces: np.ndarray) -> np.ndarray:
    """One full-grid complex ifft per scale, float64 throughout.

    This is the seed formulation the routed fast path (narrowband GEMM,
    short and full-length inverse FFTs) is validated against.
    """
    single = traces.ndim == 1
    batch = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    if batch.shape[1] != cwt.n_samples:
        raise ValueError(
            f"expected {cwt.n_samples}-sample traces, got {batch.shape[1]}"
        )
    config = cwt.config
    omega = 2.0 * np.pi * np.fft.fftfreq(cwt.n_fft)
    scales = config.scales
    arg = scales[:, None] * omega[None, :]
    response = np.exp(-0.5 * (arg - config.omega0) ** 2)
    response *= omega[None, :] > 0
    response *= np.sqrt(scales)[:, None]
    spectrum = np.fft.fft(batch, n=cwt.n_fft, axis=1)
    n = batch.shape[0]
    out = np.empty((n, config.n_scales, cwt.n_samples), dtype=np.float32)
    for j in range(config.n_scales):
        coeff = np.fft.ifft(spectrum * response[j], axis=1)
        coeff = coeff[:, : cwt.n_samples]
        if config.magnitude:
            out[:, j, :] = np.abs(coeff).astype(np.float32)
        else:
            out[:, j, :] = coeff.real.astype(np.float32)
    return out[0] if single else out

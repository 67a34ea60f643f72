"""Reference quality metrics on [0,1] videos."""

import numpy as np

PSNR_CAP = 99.0
SSIM_WINDOW = 8  # side of ssim's non-overlapping square windows


def psnr(a: np.ndarray, b: np.ndarray, region: np.ndarray | None = None) -> float:
    """10*log10(1/MSE) in dB; identical inputs report the 99 dB cap.

    region, when given, is a (H, W, S, 1) selector: only sites where it is
    nonzero contribute (all three channels).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a - b
    if region is not None:
        sel = np.broadcast_to(np.asarray(region) != 0, a.shape)
        if not sel.any():
            raise ValueError("empty evaluation region")
        mse = float((d[sel] ** 2).mean())
    else:
        if a.size == 0:
            raise ValueError("empty evaluation region")
        mse = float((d ** 2).mean())
    if mse == 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Single-scale SSIM, non-overlapping windows, averaged everywhere.

    Windows tile each frame from the top-left corner; ragged borders when
    dimensions are not multiples of SSIM_WINDOW are ignored. Constants
    C1=(0.01)^2, C2=(0.03)^2 assume the [0,1] range.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    H, W, S, C = a.shape
    if H < SSIM_WINDOW or W < SSIM_WINDOW:
        raise ValueError(f"frames {H}x{W} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    nh, nw = H // SSIM_WINDOW, W // SSIM_WINDOW

    # (nh, nw, S, C, SSIM_WINDOW, SSIM_WINDOW) window stacks
    def windows(x):
        x = x[:nh * SSIM_WINDOW, :nw * SSIM_WINDOW]
        x = x.reshape(nh, SSIM_WINDOW, nw, SSIM_WINDOW, S, C)
        return x.transpose(0, 2, 4, 5, 1, 3)

    wa, wb = windows(a), windows(b)
    mu_a = wa.mean(axis=(-2, -1))
    mu_b = wb.mean(axis=(-2, -1))
    var_a = wa.var(axis=(-2, -1))
    var_b = wb.var(axis=(-2, -1))
    cov = ((wa - mu_a[..., None, None]) * (wb - mu_b[..., None, None])).mean(axis=(-2, -1))
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return float(score.mean())

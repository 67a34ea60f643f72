"""Reference implementations the benchmark checks the program against.

Everything here is written from the definitions in the package README
(P6 frames, space-to-depth codec, linear noise schedule, ancestral
sampler with classifier-free guidance, clip plan, refiner) and imports
nothing from `outpainter`, so a check cannot pass by calling the code it
checks. Every check raises CheckFailed with a one-line reason.
"""

import os

import numpy as np

PATCH = 4
PSNR_CAP = 99.0


class CheckFailed(Exception):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def expect_reject(label: str, check, *args) -> None:
    """Self-test: `check` must reject the deliberately perturbed `args`."""
    try:
        check(*args)
    except CheckFailed:
        return
    raise CheckFailed(f"self-test {label}: the oracle accepted a perturbed output")


# ---- frame sequences ------------------------------------------------------

def write_sequence(directory: str, video: np.ndarray) -> None:
    """(H, W, S, 3) uint8 -> frame_%05d.ppm files plus manifest.txt."""
    H, W, S, _ = video.shape
    os.makedirs(directory, exist_ok=True)
    for s in range(S):
        with open(os.path.join(directory, f"frame_{s:05d}.ppm"), "wb") as f:
            f.write(b"P6\n%d %d\n255\n" % (W, H))
            f.write(np.ascontiguousarray(video[:, :, s]).tobytes())
    with open(os.path.join(directory, "manifest.txt"), "w") as f:
        f.write(f"frames={S} width={W} height={H}\n")


def read_ppm(path: str) -> np.ndarray:
    """Strict binary P6 reader: magic, width, height, maxval 255, one
    whitespace byte, then exactly width*height*3 pixel bytes."""
    with open(path, "rb") as f:
        data = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        require(pos > start, f"{path}: truncated P6 header")
        fields.append(data[start:pos])
    require(fields[0] == b"P6", f"{path}: magic {fields[0]!r} is not P6")
    require(all(f.isdigit() for f in fields[1:]), f"{path}: non-numeric P6 header")
    W, H, maxval = (int(f) for f in fields[1:])
    require(maxval == 255, f"{path}: maxval {maxval}")
    body = data[pos + 1:]
    require(len(body) == W * H * 3, f"{path}: {len(body)} pixel bytes for {W}x{H}")
    return np.frombuffer(body, dtype=np.uint8).reshape(H, W, 3)


def read_sequence(directory: str) -> np.ndarray:
    with open(os.path.join(directory, "manifest.txt")) as f:
        meta = dict(tok.split("=", 1) for tok in f.read().split())
    S, W, H = int(meta["frames"]), int(meta["width"]), int(meta["height"])
    video = np.empty((H, W, S, 3), dtype=np.uint8)
    for s in range(S):
        frame = read_ppm(os.path.join(directory, f"frame_{s:05d}.ppm"))
        require(frame.shape == (H, W, 3), f"{directory}: frame {s} is {frame.shape}")
        video[:, :, s] = frame
    return video


# ---- generated inputs -----------------------------------------------------

def texture_video(rng: np.random.Generator, H: int, W: int, S: int, block: int,
                  lo: int = 0, hi: int = 256) -> np.ndarray:
    """uint8 (H, W, S, 3): random block colours in [lo, hi) drifting with
    wrap-around at one integer velocity whose horizontal part is never 0,
    so side bands see new content every frame and region errors average
    over many independent colours."""
    base = rng.integers(lo, hi, size=(-(-H // block), -(-W // block), 3), dtype=np.uint8)
    frame0 = base.repeat(block, axis=0).repeat(block, axis=1)[:H, :W]
    vy, vx = int(rng.integers(-2, 3)), int(rng.choice([-2, -1, 1, 2]))
    return np.stack([np.roll(frame0, (k * vy, k * vx), axis=(0, 1)) for k in range(S)], axis=2)


def band_mask(H: int, W: int, S: int, ratio: float) -> np.ndarray:
    """Given-region mask (ones kept) of the CLI's horizontal evaluation mask:
    round(ratio*W) columns regenerated, floor half on the left."""
    total = int(round_half_away(ratio * W))
    left = total // 2
    M = np.zeros((H, W, S, 1))
    M[:, left:W - (total - left)] = 1.0
    return M


def train_mask(rng: np.random.Generator, H: int, W: int, S: int) -> np.ndarray:
    """Frame-constant side bands: 10-60% of one axis regenerated."""
    total = int(rng.integers(H // 10 + 1, 6 * H // 10 + 1))
    first = int(rng.integers(0, total + 1))
    plane = np.ones((H, W))
    if rng.random() < 0.5:
        plane[:, :first] = 0.0
        plane[:, W - (total - first):] = 0.0
    else:
        plane[:first, :] = 0.0
        plane[H - (total - first):, :] = 0.0
    return np.repeat(plane[:, :, None, None], S, axis=2)


# ---- codec, schedule, sampler ---------------------------------------------

def encode(x: np.ndarray) -> np.ndarray:
    """(H, W, S, 3) -> (H/4, W/4, S, 48): block row, block column, colour."""
    H, W, S, C = x.shape
    z = x.reshape(H // PATCH, PATCH, W // PATCH, PATCH, S, C).transpose(0, 2, 4, 1, 3, 5)
    return z.reshape(H // PATCH, W // PATCH, S, PATCH * PATCH * C)


def decode(z: np.ndarray) -> np.ndarray:
    h, w, S, _ = z.shape
    x = z.reshape(h, w, S, PATCH, PATCH, 3).transpose(0, 3, 1, 4, 2, 5)
    return x.reshape(h * PATCH, w * PATCH, S, 3)


def latent_mask(M: np.ndarray) -> np.ndarray:
    H, W, S, _ = M.shape
    return M.reshape(H // PATCH, PATCH, W // PATCH, PATCH, S, 1).mean(axis=(1, 3))


def masked_latents(video: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Latents of the clip with the regenerated region filled mid-gray."""
    return encode(np.where(M == 1.0, video, 0.5))


def alpha_bar(T: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02) -> np.ndarray:
    return np.cumprod(1.0 - np.linspace(beta_start, beta_end, T))


def reference_sample(predict_eps, z_masked, m, text, steps: int, cfg: float, seed: int,
                     ab: np.ndarray) -> np.ndarray:
    """Ancestral sampling over `steps` timesteps strided by T//steps, with
    the effective alpha of each skipped range; the last step returns the
    clean estimate. Guidance mixes eps_u + cfg*(eps_c - eps_u), which is
    eps_c itself at cfg 1."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(z_masked.shape)
    stride = len(ab) // steps
    ts = [stride * k for k in range(steps, 0, -1)]
    for i, t in enumerate(ts):
        eps = np.asarray(predict_eps(z, t, z_masked, m, text))
        if cfg != 1.0:
            eps_u = np.asarray(predict_eps(z, t, z_masked, m, None))
            eps = eps_u + cfg * (eps - eps_u)
        a_t = ab[t - 1]
        if i == steps - 1:
            return (z - np.sqrt(1.0 - a_t) * eps) / np.sqrt(a_t)
        alpha = a_t / ab[ts[i + 1] - 1]
        z = (z - (1.0 - alpha) / np.sqrt(1.0 - a_t) * eps) / np.sqrt(alpha)
        z = z + np.sqrt(1.0 - alpha) * rng.standard_normal(z.shape)
    raise CheckFailed("sampler took no steps")


def check_close(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    require(got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want)))
    require(err <= tol, f"{label}: max abs difference {err:.3e} > {tol:.0e}")


# ---- outputs ----------------------------------------------------------------

def check_given_region(label: str, out: np.ndarray, source: np.ndarray, M: np.ndarray) -> None:
    require(out.shape == source.shape, f"{label}: output {out.shape} != input {source.shape}")
    keep = np.broadcast_to(M == 1.0, source.shape)
    bad = int(np.count_nonzero(out[keep] != source[keep]))
    require(bad == 0, f"{label}: {bad} given-region values differ from the input")


def region_sq_error(out_u8: np.ndarray, truth_u8: np.ndarray, region: np.ndarray):
    """(sum of squared [0,1] errors, value count) over region != 0."""
    sel = np.broadcast_to(region != 0, truth_u8.shape)
    d = (out_u8[sel].astype(np.float64) - truth_u8[sel]) / 255.0
    return float(d @ d), int(d.size)


def psnr_db(sq_err: float, count: int) -> float:
    require(count > 0, "empty PSNR region")
    if sq_err == 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(count / sq_err), PSNR_CAP)


def check_psnr_agrees(label: str, ours: float, theirs: float) -> None:
    require(abs(ours - theirs) <= 1e-9,
            f"{label}: benchmark PSNR {ours:.12f} != metrics.psnr {theirs:.12f}")


def clip_plan(S_l: int, S: int, K: int) -> list:
    """Starts every S-K frames; a last clip that would overrun starts at S_l-S."""
    starts = list(range(0, S_l - S + 1, S - K))
    if starts[-1] + S < S_l:
        starts.append(S_l - S)
    return [(a, a + S) for a in starts]


def check_plan(label: str, got, want) -> None:
    require([tuple(r) for r in got] == [tuple(r) for r in want],
            f"{label}: clip ranges {list(got)} != {list(want)}")


# ---- refiner ----------------------------------------------------------------

def round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def reference_refine(clip: np.ndarray, template: np.ndarray, K: int):
    """Per-channel mean/variance alignment of the clip's first K frames to
    the template, half-away rounding into [0, 255], then 256-bin CDF
    matching of the realigned first K frames to the template. Returns the
    refined clip (int64) and the three LUTs."""
    work = clip.astype(np.float64)
    tmpl = template.astype(np.float64)
    n_s = work[:, :, :K, 0].size
    n_t = tmpl[..., 0].size
    aligned = np.empty_like(work)
    for c in range(3):
        src, ref = work[:, :, :K, c], tmpl[..., c]
        mu_s, mu_t = src.sum() / n_s, ref.sum() / n_t
        sd_s = np.sqrt(((src - mu_s) ** 2).sum() / n_s)
        sd_t = np.sqrt(((ref - mu_t) ** 2).sum() / n_t)
        if sd_s == 0.0:
            aligned[..., c] = work[..., c] + (mu_t - mu_s)
        else:
            aligned[..., c] = (work[..., c] - mu_s) * (sd_t / sd_s) + mu_t
    aligned = np.clip(round_half_away(np.clip(aligned, 0.0, 255.0)), 0, 255).astype(np.int64)

    out = np.empty_like(aligned)
    luts = []
    for c in range(3):
        src = aligned[:, :, :K, c]
        ref = template[..., c]
        cdf_s = [np.count_nonzero(src <= v) / src.size for v in range(256)]
        cdf_t = [np.count_nonzero(ref <= v) / ref.size for v in range(256)]
        lut = np.empty(256, dtype=np.int64)
        for v in range(256):
            q = cdf_s[v]
            j = next((j for j in range(256) if cdf_t[j] >= q), 256)
            if j == 256:
                lut[v] = 255
            elif cdf_t[j] == q:
                lut[v] = j
            elif j == 0:
                lut[v] = 0
            else:
                frac = (q - cdf_t[j - 1]) / (cdf_t[j] - cdf_t[j - 1])
                lut[v] = int(round_half_away(j - 1 + frac))
        out[..., c] = lut[aligned[..., c]]
        luts.append(lut)
    return out, luts, aligned


def check_equal(label: str, got: np.ndarray, want: np.ndarray) -> None:
    require(got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}")
    bad = int(np.count_nonzero(got != want))
    require(bad == 0, f"{label}: {bad} values differ from the reference")


# ---- gradients --------------------------------------------------------------

def check_directional_derivative(label: str, fd: float, analytic: float) -> None:
    """Central difference vs <grad, direction>, relative tolerance 1e-5."""
    require(np.isfinite(fd) and np.isfinite(analytic), f"{label}: non-finite derivative")
    err = abs(fd - analytic)
    require(err <= 1e-5 * abs(analytic) + 1e-9,
            f"{label}: finite difference {fd:.10e} vs backward {analytic:.10e}")

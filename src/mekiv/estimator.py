"""Three-step estimator for the structural function under corrupted treatment.

Step 1 fits conditional mean embeddings of the second measurement N given the
instrument Z and of the joint (M, N) given Z. Step 2 recovers latent
treatment samples by gradient descent on the discrepancy between the latent
ratio statistic w_X and the measured labels w_MN over sampled (alpha, z)
pairs. Step 3 runs the standard two-stage kernel-IV regression with the
recovered samples as treatment anchors.

All kernel work happens on standardized inputs. M and N are standardized with
pooled statistics (mean and scale of the stacked sample) so the additive
error structure M = X + dM, N = X + dN survives the rescaling; the recovered
latents therefore live on that pooled scale and ``StructuralFn`` carries the
scalers needed to accept raw treatment points and emit raw outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import krr
from .charfun import EPS_DENOM, ratio_grid
from .kernels import (
    KernelSpec,
    SpectralSampler,
    Standardizer,
    as_points,
    gram,
    median_heuristic,
)
from .krr import CmeSolver, NumericalError

DEFAULT_XI_GRID = np.logspace(-7.0, 0.0, 10)

# Relative near-tie band for the stage-2 ridge selection (see step3).
XI_SCORE_REL_TOL = 5e-3


@dataclass
class Stage1Output:
    """Stage-1 ridge systems and the standardized samples the fit reads.

    ``solver_n`` and ``solver_mn`` give the gamma weights of the N|Z and
    (M,N)|Z embeddings, both on the instrument sample ``z``. ``x_scaler`` is
    the pooled M/N standardizer defining the scale that ``m``, ``n`` and the
    recovered latents live on.
    """

    z: np.ndarray  # (s1, dz) standardized
    m: np.ndarray  # (s1,) on the pooled scale
    n: np.ndarray  # (s1,) on the pooled scale
    solver_n: CmeSolver
    solver_mn: CmeSolver
    z_scaler: Standardizer
    x_scaler: Standardizer
    kernel_z: KernelSpec

    @property
    def lambda_n(self) -> float:
        return self.solver_n.lam

    @property
    def lambda_mn(self) -> float:
        return self.solver_mn.lam


def step1(z1, m1, n1, lambda_grid=None) -> Stage1Output:
    """Fit the N|Z and (M,N)|Z embeddings with validated ridge parameters.

    ``m1`` and ``n1`` are the 1-d corrupted treatment coordinates. The joint
    embedding uses the product kernel k_M * k_N, i.e. a 2-d RBF whose
    per-dimension lengthscales come from the marginal median heuristics.
    """
    m1 = np.asarray(m1, dtype=float).ravel()
    n1 = np.asarray(n1, dtype=float).ravel()
    z1 = np.asarray(z1, dtype=float)
    if z1.ndim == 1:
        z1 = z1[:, None]
    s1 = len(z1)
    if not (len(m1) == len(n1) == s1):
        raise ValueError("z1, m1, n1 must have equal lengths")
    if s1 < 20:
        raise ValueError(f"stage 1 needs at least 20 samples, got {s1}")

    z_scaler = Standardizer.fit(z1)
    zs = z_scaler.transform(z1)
    x_scaler = Standardizer.fit(np.concatenate([m1, n1]))
    ms = x_scaler.transform(m1)
    ns = x_scaler.transform(n1)

    kernel_z = KernelSpec(median_heuristic(zs))
    kernel_m = KernelSpec(median_heuristic(ms))
    kernel_n = KernelSpec(median_heuristic(ns))
    kernel_mn = KernelSpec(
        np.concatenate([kernel_m.lengthscales, kernel_n.lengthscales])
    )

    if lambda_grid is None:
        lambda_grid = krr.default_lambda_grid(s1)

    lam_n = krr.validate_lambda(zs, ns, kernel_z, kernel_n, lambda_grid)
    solver_n = krr.fit(zs, kernel_z, lam_n)

    mn = np.column_stack([ms, ns])
    lam_mn = krr.validate_lambda(zs, mn, kernel_z, kernel_mn, lambda_grid)
    solver_mn = krr.fit(zs, kernel_z, lam_mn)

    return Stage1Output(
        z=solver_n.train_z,
        m=ms,
        n=ns,
        solver_n=solver_n,
        solver_mn=solver_mn,
        z_scaler=z_scaler,
        x_scaler=x_scaler,
        kernel_z=kernel_z,
    )


@dataclass
class TrainingPairs:
    """Labeled (alpha, z) cross-product grid for the latent-recovery objective.

    The cross product of ``alphas`` with the rows of ``z_grid`` is stored
    densely: ``labels[a, j]`` is w_MN(alpha_a, z_j) and ``weight[a, j]`` is 1
    for pairs kept after capping/degenerate drops, else 0. The eigensystem of
    the instrument Gram matrix rides along so that the latent gamma weights
    can be re-derived for any ridge value with a diagonal rescale instead of
    a fresh factorization: Gamma = U diag(1 / (eigvals + s1 * lam)) B.

    The eigensystem is cut to the numerical rank r of K_ZZ (see
    ``instrument_eigensystem``): only the r eigenpairs with
    e_k > e_max * s1 * eps are kept, so U is (s1, r) and B is (r, J). The
    dropped eigenpairs are rounding noise, with |B_k| near 1e-14. When K_ZZ has
    full rank, r = s1 and the arrays are those of the full ``eigh``.

    ``eig_u`` (U) and ``b_matrix`` (B) are real, so step 2 multiplies them
    only with real matrices: the stacked [cos, sin, x*cos, x*sin] phase blocks
    described in ``_Step2Eval``. Only the (A, J) labels are complex.
    """

    alphas: np.ndarray  # (A,)
    z_grid: np.ndarray  # (J, dz) standardized
    labels: np.ndarray  # (A, J) complex
    weight: np.ndarray  # (A, J) in {0, 1}
    dropped_pairs: int  # degenerate-denominator labels among the selected pairs
    eigvals: np.ndarray  # (r,) eigenvalues of K_ZZ above the rank tolerance
    eig_u: np.ndarray  # (s1, r) orthonormal eigenvectors
    b_matrix: np.ndarray  # (r, J) = U' K_{Z, z_grid}

    def __len__(self) -> int:
        return int(round(self.weight.sum()))

    @property
    def n_latents(self) -> int:
        return self.eig_u.shape[0]


def instrument_eigensystem(
    z: np.ndarray, z_grid: np.ndarray, kernel_z: KernelSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of K_ZZ up to its numerical rank, and B = U' K_{Z, z_grid}.

    Keeps the r eigenpairs of ``krr.gram_eigh`` with e_k > e_max * s1 * eps,
    the tolerance ``np.linalg.matrix_rank`` uses by default, and returns
    (eigvals (r,), U (s1, r), B (r, J)). U is a column view of the full
    ``eigh`` output, so at full rank every array is the one ``eigh`` and the
    plain product give.
    """
    eigvals, eig_u = krr.gram_eigh(z, kernel_z)
    s1 = eigvals.size
    rank = int(np.count_nonzero(eigvals > eigvals[-1] * s1 * np.finfo(float).eps))
    eigvals, eig_u = eigvals[s1 - rank :], eig_u[:, s1 - rank :]
    return eigvals, eig_u, eig_u.T @ gram(z, z_grid, kernel_z)


def make_training_pairs(
    stage1: Stage1Output,
    z_check,
    alpha_count: int = 64,
    pair_cap: int | None = 20_000,
    rng: np.random.Generator | None = None,
) -> TrainingPairs:
    """Sample alphas, label the (alpha, z) cross product, and cache solves.

    ``z_check`` is raw instrument data (standardized internally with the
    stage-1 statistics). Alphas come from the spectral measure of the kernel
    whose bandwidth is the median heuristic of the (M+N)/2 initialization.
    The cross product is uniformly subsampled to ``pair_cap`` pairs when it
    is larger; pairs whose label denominator is degenerate are dropped with
    the count recorded.
    """
    if alpha_count < 1:
        raise ValueError(f"alpha_count must be >= 1, got {alpha_count}")
    rng = rng if rng is not None else np.random.default_rng(0)
    zq = as_points(z_check, stage1.kernel_z.dimension)
    if len(zq) == 0:
        raise ValueError("z_check must be nonempty")
    zqs = stage1.z_scaler.transform(zq)

    x_init = 0.5 * (stage1.m + stage1.n)
    kernel_x0 = KernelSpec(median_heuristic(x_init))
    alphas = SpectralSampler(kernel_x0, rng).sample(alpha_count).ravel()

    gamma_n = stage1.solver_n.gamma_matrix(zqs)
    gamma_mn = stage1.solver_mn.gamma_matrix(zqs)

    # w_MN labels on the full grid: phases over the N anchors, M in the numerator.
    labels, degenerate = ratio_grid(alphas, stage1.n, stage1.m, gamma_mn, gamma_n)

    total = labels.size
    selected = np.ones(labels.shape, dtype=bool)
    if pair_cap is not None and total > pair_cap:
        keep = rng.choice(total, size=pair_cap, replace=False)
        selected = np.zeros(labels.shape, dtype=bool)
        selected.flat[keep] = True
    dropped = int(np.sum(selected & degenerate))
    weight = (selected & ~degenerate).astype(float)
    if weight.sum() == 0:
        raise NumericalError(
            "all training pairs have degenerate denominators; "
            "stage-1 embeddings are unusable"
        )

    eigvals, eig_u, b_matrix = instrument_eigensystem(stage1.z, zqs, stage1.kernel_z)

    return TrainingPairs(
        alphas=alphas,
        z_grid=zqs,
        labels=labels,
        weight=weight,
        dropped_pairs=dropped,
        eigvals=eigvals,
        eig_u=eig_u,
        b_matrix=b_matrix,
    )


class _Step2Eval:
    """Shared intermediates for one (x, log_lambda) objective evaluation.

    With phases E = exp(i x alpha') = C + iS (s1, A) and latent weights
    Gamma = U diag(1/denom) B (s1, J), the ratio w_X = n / d has
    d = E' Gamma and n = (x E)' Gamma. U (s1, r) and B (r, J) hold only the
    r eigenpairs of K_ZZ above its numerical rank tolerance
    e_max * s1 * eps (r = s1 at full rank; see ``TrainingPairs``), and denom
    is (r,). U and B are real, so every O(A * s1 * r) product runs in real
    arithmetic on the stacked phase block P' = [C'; S'; (x C)'; (x S)'] of
    shape (4A, s1):

        F = P' U / denom   (4A, r)
        D = F B            (4A, J), row blocks Re d, Im d, Re n, Im n.

    Only the (A, J) ratio, mask and loss are complex. The gradient reuses the
    same block layout (see ``gradients``).
    """

    def __init__(self, x: np.ndarray, log_lambda_x: float, pairs: TrainingPairs):
        self.pairs = pairs
        self.x = np.asarray(x, dtype=float).ravel()
        s1 = pairs.n_latents
        if self.x.size != s1:
            raise ValueError(f"x must have length {s1}, got {self.x.size}")
        self.lam = float(np.exp(log_lambda_x))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.denom_e = pairs.eigvals + s1 * self.lam  # (r,)
            phase = np.outer(pairs.alphas, self.x)  # (A, s1)
            cos, sin = np.cos(phase), np.sin(phase)
            self.p_block = np.concatenate([cos, sin, cos * self.x, sin * self.x])  # P'
            self.f_block = self.p_block @ pairs.eig_u  # (4A, r)
            self.f_block /= self.denom_e
            d_re, d_im, n_re, n_im = np.split(self.f_block @ pairs.b_matrix, 4)
            d_grid = d_re + 1j * d_im  # (A, J)
            bad = ~(np.abs(d_grid) >= EPS_DENOM)  # catches tiny moduli and NaN
            self.mask = pairs.weight * ~bad
            self.n_used = float(self.mask.sum())
            self.dropped = int(round(pairs.weight.sum() - self.n_used))
            self.d_safe = np.where(bad, 1.0, d_grid)
            self.w_grid = (n_re + 1j * n_im) / self.d_safe
            self.resid = self.w_grid - pairs.labels
            if self.n_used == 0:
                self.loss = np.inf
            else:
                sq = self.resid.real**2 + self.resid.imag**2
                self.loss = float(np.sum(self.mask * sq) / self.n_used)

    def gradients(self) -> tuple[np.ndarray, float]:
        """Analytic gradient of the mean squared modulus w.r.t. x and log-lambda.

        With g = mask * conj(resid) / d and h = g * w_X (A, J), the loss
        derivatives need q = diag(1/denom) B [g, h]' and P = U q. Both run as
        real products on the stacked G = [Re g; Im g; Re h; Im h] (4A, J),
        kept transposed so that row blocks line up with ``p_block`` and
        ``f_block``: q' = G B' / denom (4A, r) and P' = q' U' (4A, s1).
        """
        pairs, x = self.pairs, self.x
        s1 = pairs.n_latents
        if not np.isfinite(self.loss):
            return np.full(s1, np.nan), np.nan
        scale = 2.0 / self.n_used
        g_mat = self.mask * np.conj(self.resid) / self.d_safe  # (A, J)
        h_mat = g_mat * self.w_grid
        g_block = np.concatenate([g_mat.real, g_mat.imag, h_mat.real, h_mat.imag])
        q_block = g_block @ pairs.b_matrix.T  # (4A, r)
        q_block /= self.denom_e
        alphas = pairs.alphas

        # d(loss)/dx_k = scale * Re sum_a E[k,a] (P1[k,a] (1 + i a x_k) - i a P2[k,a])
        # with P1 = Gamma g', P2 = Gamma h'; expanded into real and imaginary parts.
        p1r, p1i, p2r, p2i = np.split(q_block @ pairs.eig_u.T, 4)  # (A, s1) each
        cos, sin = np.split(self.p_block[: 2 * alphas.size], 2)
        grad_x = scale * (
            np.sum(cos * p1r - sin * p1i, axis=0)
            + alphas @ (cos * p2i + sin * p2r)
            - x * (alphas @ (cos * p1i + sin * p1r))
        )

        # d(loss)/d(log lam) via dGamma/d(log lam) = -s1*lam * U diag(1/denom^2) B:
        # -s1*lam*scale * Re sum_{k,a} (f2[a,k] q_g[k,a] - f1[a,k] q_h[k,a]) / denom_k,
        # where f1 = E'U, f2 = (xE)'U and q_g, q_h are the g and h parts of q.
        f1r, f1i, f2r, f2i = np.split(self.f_block, 4)
        qgr, qgi, qhr, qhi = np.split(q_block, 4)
        ridge = np.sum(f2r * qgr - f2i * qgi - f1r * qhr + f1i * qhi)
        grad_ll = -s1 * self.lam * scale * float(ridge)
        return grad_x, grad_ll


def step2_loss(x, log_lambda_x: float, pairs: TrainingPairs) -> float:
    """Mean squared complex modulus of (w_X - w_MN) over the usable pairs.

    Pairs whose w_X denominator is degenerate at this x are excluded from the
    mean for this evaluation.
    """
    return _Step2Eval(x, log_lambda_x, pairs).loss


def step2_grad(x, log_lambda_x: float, pairs: TrainingPairs) -> tuple[np.ndarray, float]:
    return _Step2Eval(x, log_lambda_x, pairs).gradients()


# Fixed step rule of the latent-recovery gradient descent (see optimize_latents).
GD_INITIAL_STEP = 0.1
GD_TOL = 1e-6
GD_PATIENCE = 20
GD_STEP_GROWTH = 2.0
GD_MAX_STEP = 100.0


@dataclass
class GdConfig:
    """Proposal budget of the latent recovery; its step rule is the ``GD_*`` constants."""

    max_iters: int = 2000


@dataclass
class LatentRecovery:
    """Step-2 output: recovered latent samples and ridge parameter."""

    x_hat: np.ndarray  # (s1,) on the pooled standardized scale
    lambda_x: float
    loss_trace: np.ndarray  # objective at init and after each accepted step
    dropped_pair_count: int


def optimize_latents(
    stage1: Stage1Output, pairs: TrainingPairs, config: GdConfig | None = None
) -> LatentRecovery:
    """Gradient descent from x = (M+N)/2, lambda = lambda_N with backtracking.

    A proposed step is accepted when it does not increase the loss, otherwise
    the step size halves; accepted steps re-expand it. Stops when the
    relative improvement over ``GD_PATIENCE`` accepted steps falls below
    ``GD_TOL``, the step size underflows, or ``config.max_iters`` proposals
    have been made. The loss trace over accepted steps is non-increasing.

    No proposal is made once the loss is at the rounding floor
    eps * mean(|labels|^2) over the usable pairs: below it the residual is
    rounding error (as at zero measurement error, where the initialization
    already reproduces the labels) and there is nothing left to fit.
    """
    cfg = config or GdConfig()
    if len(pairs) == 0:
        raise ValueError("no usable training pairs")
    x = 0.5 * (stage1.m + stage1.n)
    loglam = float(np.log(stage1.lambda_n))

    ev = _Step2Eval(x, loglam, pairs)
    if not np.isfinite(ev.loss):
        raise NumericalError(
            f"non-finite step-2 objective at initialization "
            f"(loss={ev.loss!r}, usable pairs={ev.n_used:.0f} of {len(pairs)})"
        )
    grad_x, grad_ll = ev.gradients()
    trace = [ev.loss]
    last_dropped = ev.dropped
    step = GD_INITIAL_STEP
    label_sq = pairs.labels.real**2 + pairs.labels.imag**2
    floor = np.finfo(float).eps * float(np.sum(pairs.weight * label_sq) / pairs.weight.sum())

    for _ in range(cfg.max_iters):
        if trace[-1] <= floor:
            break
        prop_ll = loglam - step * grad_ll
        cand = _Step2Eval(x - step * grad_x, prop_ll, pairs)
        if cand.loss <= trace[-1]:  # NaN/inf compares False and is rejected
            x = cand.x
            loglam = prop_ll
            grad_x, grad_ll = cand.gradients()
            trace.append(cand.loss)
            last_dropped = cand.dropped
            step = min(step * GD_STEP_GROWTH, GD_MAX_STEP)
            if len(trace) > GD_PATIENCE:
                ref = trace[-1 - GD_PATIENCE]
                if ref - trace[-1] < GD_TOL * max(abs(ref), 1e-30):
                    break
        else:
            step *= 0.5
            if step < 1e-14:
                break

    return LatentRecovery(
        x_hat=x.copy(),
        lambda_x=float(np.exp(loglam)),
        loss_trace=np.asarray(trace),
        dropped_pair_count=pairs.dropped_pairs + last_dropped,
    )


@dataclass
class StructuralFn:
    """Fitted stage-2 estimator: f(x) = beta' k(anchors, x) on standardized scales."""

    anchors: np.ndarray  # (s1, dx) standardized treatment anchors
    beta: np.ndarray  # (s1,)
    kernel_x: KernelSpec
    x_scaler: Standardizer
    y_scaler: Standardizer
    lambda_x: float
    xi: float

    def predict(self, x):
        """Evaluate at raw treatment points; returns float for a single point."""
        raw = np.asarray(x, dtype=float)
        dim = self.kernel_x.dimension
        single = raw.ndim == 0 or (raw.ndim == 1 and dim > 1)
        pts = as_points(raw, dim)
        k = gram(self.anchors, self.x_scaler.transform(pts), self.kernel_x)
        vals = self.y_scaler.inverse(self.beta @ k)
        return float(vals[0]) if single else vals


def step3(
    x_hat,
    lambda_x: float,
    z1s,
    y1,
    z2s,
    y2,
    xi_grid,
    kernel_z: KernelSpec,
    x_scaler: Standardizer,
) -> StructuralFn:
    """Stage-2 kernel-IV regression on (possibly recovered) treatment anchors.

    ``z1s``/``z2s`` are standardized instrument samples, ``x_hat`` the
    standardized treatment anchors. The stage-2 ridge ``xi`` is selected by
    reversed-role validation: beta is fit on the stage-2 sample and scored by
    predicting the held-out stage-1 outcomes through the embedding. Near-ties
    resolve toward the larger xi (more regularization).

    The stage-1 weights of ``z2s`` are Gamma = U C on the rank-cut eigensystem
    (e, U, B) of K_ZZ (``instrument_eigensystem``), with
    C = diag(1/(e + s1*lambda_x)) B. The kernel-IV normal equations
    (v v' + s2*xi*k_xx) beta = v y with v = k_xx U C are then solved by
    beta = U t, where (M Q + s2*xi*I_r) t = C y, M = C C' and Q = U' k_xx U.
    The validation predictions are U diag(e/(e + s1*lambda_x)) Q t. Every xi
    costs one r x r solve; no xi needs a factorization of an s1 x s1 matrix.
    """
    xi_grid = np.asarray(xi_grid, dtype=float).ravel()
    if xi_grid.size == 0:
        raise ValueError("xi grid must be nonempty")
    if not lambda_x > 0.0:
        raise ValueError(f"lambda_x must be positive, got {lambda_x}")
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.ndim == 1:
        x_hat = x_hat[:, None]
    y1 = np.asarray(y1, dtype=float).ravel()
    y2 = np.asarray(y2, dtype=float).ravel()
    z1s = np.asarray(z1s, dtype=float)
    z2s = np.asarray(z2s, dtype=float)
    s1, s2 = len(z1s), len(z2s)
    if not (len(x_hat) == s1 == len(y1)):
        raise ValueError("x_hat, z1s, y1 must share the stage-1 length")
    if len(y2) != s2 or s2 == 0:
        raise ValueError("z2s and y2 must share a nonzero stage-2 length")

    kernel_x = KernelSpec(median_heuristic(x_hat))
    k_xx = gram(x_hat, x_hat, kernel_x)
    eigvals, eig_u, b_matrix = instrument_eigensystem(z1s, z2s, kernel_z)
    shrink = eigvals + s1 * lambda_x
    c = b_matrix / shrink[:, None]  # (r, s2): stage-1 weights of z2s are U C
    q = eig_u.T @ k_xx @ eig_u  # (r, r)
    fit_scale = eigvals / shrink  # stage-1 weights of z1s are U diag(fit_scale) U'

    y_scaler = Standardizer.fit(y2)
    y2s = y_scaler.transform(y2)
    y1s = y_scaler.transform(y1)

    cy = c @ y2s
    mq = (c @ c.T) @ q
    eye = np.eye(len(eigvals))
    fits = []
    for xi in np.sort(xi_grid):
        t = np.linalg.solve(mq + s2 * xi * eye, cy)
        score = float(np.mean((y1s - eig_u @ (fit_scale * (q @ t))) ** 2))
        fits.append((float(xi), score, eig_u @ t))

    # Prefer the largest xi whose score is a near-tie (within 0.5% relative)
    # with the best: the score curve is flat at the under-regularized end,
    # where noise would otherwise pick an exploding beta.
    best_score = min(score for _, score, _ in fits)
    xi_best, _, beta_best = max(
        (f for f in fits if f[1] <= best_score * (1.0 + XI_SCORE_REL_TOL)),
        key=lambda f: f[0],
    )
    return StructuralFn(
        anchors=x_hat,
        beta=beta_best,
        kernel_x=kernel_x,
        x_scaler=x_scaler,
        y_scaler=y_scaler,
        lambda_x=float(lambda_x),
        xi=xi_best,
    )


@dataclass
class MekivConfig:
    """End-to-end settings. ``lambda_grid`` entries are absolute ridge values;
    when None the default grid (log-spaced on the s*lambda scale) is used."""

    alpha_count: int = 64
    pair_cap: int | None = 20_000
    lambda_grid: np.ndarray | None = None
    xi_grid: np.ndarray | None = None
    gd: GdConfig = field(default_factory=GdConfig)
    seed: int = 0


@dataclass
class MekivDetails:
    stage1: Stage1Output
    pairs: TrainingPairs
    recovery: LatentRecovery
    x_hat_raw: np.ndarray  # recovered corrupted coordinate on the raw scale


def _columns(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def require_finite(split_name: str, **columns: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first column holding NaN or inf."""
    for name, arr in columns.items():
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            row = int(np.unravel_index(bad[0], np.shape(arr))[0])
            raise ValueError(
                f"column '{name}' of the {split_name} has {bad.size} non-finite "
                f"value(s), first in row {row}"
            )


def require_rows(split_name: str, **columns: np.ndarray) -> None:
    """Raise ``ValueError`` naming the split if its first column given is empty,
    or naming the first column whose row count differs from that one's."""
    (ref_name, ref), *rest = columns.items()
    if len(ref) == 0:
        raise ValueError(f"the {split_name} is empty: column '{ref_name}' has 0 rows")
    for name, arr in rest:
        if len(arr) != len(ref):
            raise ValueError(
                f"column '{name}' of the {split_name} has {len(arr)} row(s), "
                f"but column '{ref_name}' has {len(ref)}"
            )


def require_same_columns(name: str, first: np.ndarray, second: np.ndarray) -> None:
    """Raise ``ValueError`` if column ``name`` has another width in the second split."""
    got, want = _columns(second).shape[1], _columns(first).shape[1]
    if got != want:
        raise ValueError(
            f"column '{name}' of the second split has {got} column(s), "
            f"but the first split's has {want}"
        )


def mekiv_fit(split1, split2, config: MekivConfig | None = None, details: bool = False):
    """Fit the full estimator from two disjoint data splits.

    The splits provide attributes ``z``, ``m``, ``n``, ``y`` (stage 1) and
    ``z``, ``y`` (stage 2); multi-dimensional treatments carry a
    ``corrupted_dim`` attribute naming the single noisy coordinate, all other
    coordinates pass through unchanged. Deterministic under a fixed
    ``config.seed``.
    """
    cfg = config or MekivConfig()
    m1 = _columns(split1.m)
    n1 = _columns(split1.n)
    z1 = np.asarray(split1.z, dtype=float)
    y1 = np.asarray(split1.y, dtype=float).ravel()
    z2 = np.asarray(split2.z, dtype=float)
    y2 = np.asarray(split2.y, dtype=float).ravel()
    require_rows("first split", z=z1, m=m1, n=n1, y=y1)
    require_rows("second split", z=z2, y=y2)
    require_finite("first split", z=z1, m=m1, n=n1, y=y1)
    require_finite("second split", z=z2, y=y2)
    require_same_columns("z", z1, z2)
    cd = int(getattr(split1, "corrupted_dim", 0))

    stage1 = step1(z1, m1[:, cd], n1[:, cd], cfg.lambda_grid)
    rng = np.random.default_rng([cfg.seed, 101])
    pairs = make_training_pairs(stage1, z2, cfg.alpha_count, cfg.pair_cap, rng)
    recovery = optimize_latents(stage1, pairs, cfg.gd)

    # Reassemble the full treatment: recovered coordinate plus the clean
    # pass-through coordinates (identical in m and n), each standardized.
    dx = m1.shape[1]
    mean = np.empty(dx)
    scale = np.empty(dx)
    anchors = np.empty((len(m1), dx))
    mean[cd] = stage1.x_scaler.mean[0]
    scale[cd] = stage1.x_scaler.scale[0]
    anchors[:, cd] = recovery.x_hat
    for d in range(dx):
        if d == cd:
            continue
        col_scaler = Standardizer.fit(m1[:, d])
        mean[d] = col_scaler.mean[0]
        scale[d] = col_scaler.scale[0]
        anchors[:, d] = col_scaler.transform(m1[:, d])
    x_scaler = Standardizer(mean=mean, scale=scale)

    xi_grid = cfg.xi_grid if cfg.xi_grid is not None else DEFAULT_XI_GRID
    fn = step3(
        anchors,
        recovery.lambda_x,
        stage1.z,
        y1,
        stage1.z_scaler.transform(z2),
        y2,
        xi_grid,
        stage1.kernel_z,
        x_scaler,
    )
    if details:
        x_hat_raw = stage1.x_scaler.inverse(recovery.x_hat)
        return fn, MekivDetails(stage1, pairs, recovery, x_hat_raw)
    return fn

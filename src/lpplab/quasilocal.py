"""Gaussian-filtered quasi-projectors and localized sector transport.

The construction chain:

  1. choose_filter_params fixes (alpha, T) from (g, mu, C_mu, ||Phi||'_mu,
     v, l) so that the three exponents g^2/4a, aT^2, mu(l - vT) coincide
     at mu g l / (g + 4 C_mu ||Phi||'_mu) = l / xi.
  2. solve_filter_coefficients interpolates a_lambda so the filtered sum
     P_script = sum a_lambda P_lambda acts as the identity on sigma_in.
  3. build_R evaluates the truncated time integral

        R_i = sum_lambda a_lambda sqrt(a/pi) int_{-T}^{T} dt e^{-a t^2}
              e^{it(lambda_i0 - lambda)} e^{itH} e^{-itH0}

     in closed form: in the eigenbasis pair the integrand is diagonal,
     so R_i = V (C o Phi_i) V0^dagger with C = V^dagger V0 and Phi_i
     the truncated Gaussian integral (a Faddeeva expression) at
     kappa_a - kappa0_b + lambda_i0 - lambda.  The zeroth Dyson term is
     carried at its full (untruncated) value: the |t| >= T remainder of
     that scalar term belongs to R^{<=T}, which is what makes the
     eps = 0 step exact.
  4. localize_R takes the normalized partial trace onto K_l.
  5. path_transport iterates localized steps through the coefficient
     recursion L^(m) = c(m) R^(m) L^(m-1) entirely on H_{K_l}.

Everything here works on explicit spectral data; no contour integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import wofz

from . import kernels, lattice
from .exceptions import StepTooLarge
from .operators import (
    LocalOperator,
    embed_matrix,
    operator_norm,
    partial_trace_localize,
)
from .sectors import (
    align_phases,
    solve_step_coefficients,
    split_sector,
    verify_gap_along_path,
)

CLUSTER_TOL = 1e-9
PHI_BLOCK = 1 << 16  # entries of Phi evaluated per row block in build_R
STEP_CAP = 10_000


# ------------------------------------------------------------ parameters


@dataclass(frozen=True)
class FilterParams:
    """Gaussian filter data for one localization radius l."""

    alpha: float
    T: float
    l: float
    mu_prime: float
    exponent: float  # the common value of the three equalities
    nodes: np.ndarray | None = None
    a: np.ndarray | None = None

    def with_coefficients(self, nodes, a):
        return replace(self, nodes=np.asarray(nodes, float), a=np.asarray(a, float))


def choose_filter_params(g, mu, c_mu, phi_prime_norm, v, l) -> FilterParams:
    """(alpha, T) balancing the three error exponents; validates the equalities."""
    if l <= 0:
        raise ValueError("localization radius l must be positive")
    if v <= 0:
        raise ValueError("zero velocity: no dynamics to localize against")
    if min(g, mu, c_mu, phi_prime_norm) <= 0:
        raise ValueError("g, mu, C_mu, ||Phi||'_mu must all be positive")
    x = c_mu * phi_prime_norm
    alpha = g * (g + 4 * x) / (4 * mu * l)
    T = 4 * x * l / ((g + 4 * x) * v)
    exponent = mu * g * l / (g + 4 * x)
    e1 = g * g / (4 * alpha)
    e2 = alpha * T * T
    e3 = mu * (l - v * T)
    worst = max(abs(e - exponent) for e in (e1, e2, e3))
    if worst > 1e-12 * max(exponent, 1.0):
        raise ValueError(
            "three-equalities check failed; the supplied v is inconsistent "
            "with 2 C_mu ||Phi||'_mu / mu"
        )
    return FilterParams(
        alpha=alpha, T=T, l=l, mu_prime=exponent / l, exponent=exponent
    )


def solve_filter_coefficients(sigma_in, alpha):
    """Interpolation weights a_lambda with sum_l a_l e^{-(k-l)^2/4a} = 1.

    Eigenvalues closer than 1e-9 are merged to one node (the filter
    weight depends only on the eigenvalue).  Returns (nodes, a, info).
    """
    vals = np.sort(np.asarray(sigma_in, dtype=float))
    nodes = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > CLUSTER_TOL:
            nodes.append(vals[start:i].mean())
            start = i
    nodes = np.array(nodes)
    diff = nodes[:, None] - nodes[None, :]
    M = np.exp(-(diff**2) / (4 * alpha))
    ev = np.linalg.eigvalsh(M)
    cond = float(ev.max() / ev.min()) if ev.min() > 0 else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            f"filter node system is numerically singular (cond {cond:.2e}); "
            "use a smaller alpha (larger l)"
        )
    a = np.linalg.solve(M, np.ones(len(nodes)))
    warns = ()
    if (a <= 0).any() or (a >= 1 + 1e-12).any():
        warns = (f"filter coefficients outside (0,1): {a}",)
    return nodes, a, {"cond": cond, "warnings": warns}


# ------------------------------------------------- truncated Gaussian


def _gauss_truncated(omega, alpha, T):
    """sqrt(a/pi) int_{-T}^{T} e^{-a t^2} e^{i omega t} dt, closed form.

    Faddeeva form e^{-omega^2/4a} - e^{-aT^2} Re[e^{-i omega T} w(iz)] with
    z = sqrt(a) T + i omega / (2 sqrt(a)).  Im(iz) = sqrt(a) T > 0, where
    w is bounded, so no omega overflows and none needs a cutoff: far off
    resonance the value decays like 2 e^{-aT^2} sin(omega T) / omega.
    """
    omega = np.asarray(omega, dtype=float)
    ra = np.sqrt(alpha)
    iz = -omega / (2 * ra) + 1j * ra * T
    edge = np.real(np.exp(-1j * T * omega) * wofz(iz))
    return np.exp(-(omega**2) / (4 * alpha)) - np.exp(-alpha * T * T) * edge


def gaussian_filtered_projector(S, lam, alpha):
    """P_lambda = sum_kappa e^{-(kappa-lam)^2/4a} Q_kappa, from the spectrum.

    This is the full-time filter sqrt(a/pi) int e^{-a t^2} e^{it(H-lam)} dt
    with the Gaussian weights evaluated in the eigenbasis.
    """
    S.require_complete("gaussian_filtered_projector")
    w = np.exp(-((S.values - lam) ** 2) / (4 * alpha))
    return (S.vectors * w) @ S.vectors.conj().T


# ------------------------------------------------------------- build_R


def _build_R_batch(S0, S, lam0s, params: FilterParams, overlap=None):
    """R_i^{<=T} for several sector eigenvalues lambda_i0 in one sweep.

    With C = V^dagger V0 the integrand is diagonal in the eigenbasis pair,
    so the truncated integral is exact:

        R_i = V (C o Phi_i) V0^dagger,
        Phi_i[a, b] = sum_lambda a_lambda g_T(kappa_a - kappa0_b + lambda_i0 - lambda),

    g_T = _gauss_truncated.  The zeroth Dyson term is then lifted to its
    full-time value by adding sum_lambda a_lambda (e^{-w^2/4a} - g_T(w)),
    w = lambda_i0 - lambda, on the diagonal (see module docstring).  Phi
    is evaluated in row blocks to keep the D x D temporaries few.  Phi is
    real, so the stack is real when both eigenbases are.
    Returns (stack, diagnostics).
    """
    if params.nodes is None or params.a is None:
        raise ValueError("filter coefficients not solved; call with_coefficients")
    S0.require_complete("build_R")
    S.require_complete("build_R")
    lam0s = np.asarray(lam0s, dtype=float)
    alpha, T = params.alpha, params.T
    nodes, a = params.nodes, params.a
    C = overlap if overlap is not None else S.vectors.conj().T @ S0.vectors
    kap, kap0 = S.values, S0.values
    n_i, D = len(lam0s), C.shape[0]
    shifts = lam0s[:, None] - nodes[None, :]
    V0h = S0.vectors.conj().T
    rows = max(1, PHI_BLOCK // D)

    stack = np.empty((n_i, D, D), dtype=np.result_type(C, S.vectors, V0h))
    for i in range(n_i):
        for r in range(0, D, rows):
            omega = kap[r : r + rows, None] - kap0[None, :]
            phi = sum(w * _gauss_truncated(omega + s, alpha, T) for w, s in zip(a, shifts[i]))
            np.multiply(C[r : r + rows], phi, out=stack[i, r : r + rows])
        np.matmul(S.vectors @ stack[i], V0h, out=stack[i])

    # full-time value of the zeroth Dyson term, per i
    comp = np.sum(
        a * (np.exp(-(shifts**2) / (4 * alpha)) - _gauss_truncated(shifts, alpha, T)),
        axis=1,
    )
    idx = np.arange(D)
    stack[:, idx, idx] += comp[:, None]
    return stack, {"sum_a": float(a.sum()), "tail_compensation": comp}


def build_R(S0, S, lam0, params: FilterParams, overlap=None):
    """Single-eigenvalue wrapper around the batched evaluation."""
    stack, diag = _build_R_batch(S0, S, [lam0], params, overlap=overlap)
    diag["tail_compensation"] = float(diag["tail_compensation"][0])
    return stack[0], diag


def localize_R(R, K, l, G) -> LocalOperator:
    """Normalized partial trace of R onto the l-fattening of K."""
    return partial_trace_localize(R, lattice.fatten(G, K, l), G)


# ------------------------------------------------------------- weak step


def _step_gap(path, s0, s1):
    gaps = [path.sector(s0).gap, path.sector(s1).gap]
    mid = (s0 + s1) / 2
    vals = path.sector_values(mid)
    _, _, g_mid = split_sector(vals, path.rule, s=mid, complete=len(vals) == path.dim)
    return min(gaps + [g_mid])


def weak_step(path, s0, eps, l, g=None):
    """Localized single-step transformations R_i^l and their errors.

    l may be a scalar or a sequence (the sweep shares all spectral
    work).  Returns a dict with per-l LocalOperators, localized errors
    ||(P(s0+eps) - R_i^l) psi_i(s0)||, unlocalized errors, filter
    parameters, and solver warnings.
    """
    ls = np.atleast_1d(np.asarray(l))
    consts = path.constants()
    if g is None:
        g = _step_gap(path, s0, s0 + eps)
    sec0 = path.sector(s0)
    sec1 = path.sector(s0 + eps)
    S0, S1 = path.spectral(s0), path.spectral(s0 + eps)
    C = S1.vectors.conj().T @ S0.vectors
    K = path.K
    G = path.graph
    psi0 = sec0.basis
    # P(s0+eps) psi_i(s0), shared across the l-sweep
    proj0 = sec1.basis @ (sec1.basis.conj().T @ psi0)

    out = {"l": [], "R": [], "errors": [], "unlocalized_errors": [], "params": [],
           "warnings": [], "gap": g}
    for lv in ls:
        params = choose_filter_params(
            g, consts["mu"], consts["c_mu"], consts["phi_prime_norm"], consts["v"], lv
        )
        nodes, a, info = solve_filter_coefficients(sec1.values_in, params.alpha)
        params = params.with_coefficients(nodes, a)
        stack, diag = _build_R_batch(S0, S1, sec0.values_in, params, overlap=C)
        Kl = tuple(sorted(lattice.fatten(G, K, lv)))
        plan = kernels.EmbeddingPlan(G.site_dims, Kl)
        ops, errs, raw_errs = [], [], []
        for i in range(sec0.dim):
            R_loc = partial_trace_localize(stack[i], Kl, G)
            approx = kernels.apply_embedded(R_loc.matrix, plan, psi0[:, i])
            errs.append(float(np.linalg.norm(proj0[:, i] - approx)))
            raw_errs.append(float(np.linalg.norm(proj0[:, i] - stack[i] @ psi0[:, i])))
            ops.append(R_loc)
        out["l"].append(float(lv))
        out["R"].append(ops)
        out["errors"].append(errs)
        out["unlocalized_errors"].append(raw_errs)
        out["params"].append(params)
        out["warnings"].extend(info["warnings"])
    if np.ndim(l) == 0:
        for key in ("l", "R", "errors", "unlocalized_errors", "params"):
            out[key] = out[key][0]
    return out


# ---------------------------------------------------------- path transport


@dataclass
class TransportSet:
    """Iterated localized transport L_ij^l over an n-step path."""

    L: np.ndarray  # (d, d, DK, DK) matrices on H_{K_l}
    support: tuple
    dims: tuple
    n: int
    l: float
    c_history: list
    errors: np.ndarray
    warnings: tuple
    gap: float

    @property
    def dim(self):
        return self.L.shape[0]

    def operator(self, i, j) -> LocalOperator:
        return LocalOperator(self.support, self.dims, self.L[i, j])


class _PredicateFailure(Exception):
    pass


def _transport_attempt(path, n, ls, g, consts):
    G = path.graph
    K = path.K
    d = path.sector(0.0).dim
    ss = np.linspace(0.0, 1.0, n + 1)

    regions = {}
    plans = {}
    L = {}
    for lv in ls:
        Kl = tuple(sorted(lattice.fatten(G, K, lv)))
        regions[lv] = Kl
        dims = tuple(G.site_dims[x] for x in Kl)
        DK = int(np.prod(dims, dtype=np.int64))
        plans[lv] = (dims, kernels.EmbeddingPlan(G.site_dims, Kl))
        eye = np.eye(DK, dtype=complex)
        L[lv] = np.array(
            [[eye if i == j else np.zeros((DK, DK), complex) for j in range(d)]
             for i in range(d)]
        )

    sec_prev = path.sector(0.0)
    c_history = []
    warnings = []
    for m in range(1, n + 1):
        s_prev, s_next = ss[m - 1], ss[m]
        try:
            sec_next = align_phases(sec_prev, path.sector(s_next))
            c, info = solve_step_coefficients(sec_prev, sec_next)
        except StepTooLarge as exc:
            raise _PredicateFailure(str(exc))
        if info["violations"]:
            raise _PredicateFailure(
                f"step {m}: {info['violations']} coefficient rows exceed 2 sqrt(D)"
            )
        c_history.append(c)

        S_prev, S_next = path.spectral(s_prev), path.spectral(s_next)
        C = S_next.vectors.conj().T @ S_prev.vectors
        for lv in ls:
            params = choose_filter_params(
                g, consts["mu"], consts["c_mu"], consts["phi_prime_norm"],
                consts["v"], lv,
            )
            nodes, a, info_f = solve_filter_coefficients(sec_next.values_in, params.alpha)
            warnings.extend(info_f["warnings"])
            params = params.with_coefficients(nodes, a)
            stack, _ = _build_R_batch(S_prev, S_next, sec_prev.values_in, params, overlap=C)
            R_small = np.array(
                [partial_trace_localize(stack[j], regions[lv], G).matrix for j in range(d)]
            )
            old = L[lv]
            # recursion: L^(m)_{ij} = sum_p c_{ip} R_p L^(m-1)_{pj}
            RL = np.einsum("pab,pqbc->pqac", R_small, old)
            L[lv] = np.einsum("ip,pqac->iqac", c, RL)
        sec_prev = sec_next

    # endpoint reconstruction errors
    psi0 = path.sector(0.0).basis
    psi1 = sec_prev.basis
    errors = {}
    for lv in ls:
        dims, plan = plans[lv]
        errs = []
        for i in range(d):
            acc = np.zeros(psi1.shape[0], dtype=complex)
            for j in range(d):
                acc += kernels.apply_embedded(L[lv][i, j], plan, psi0[:, j])
            errs.append(float(np.linalg.norm(psi1[:, i] - acc)))
        errors[lv] = np.array(errs)

    out = {}
    for lv in ls:
        dims, _ = plans[lv]
        out[lv] = TransportSet(
            L=L[lv],
            support=regions[lv],
            dims=dims,
            n=n,
            l=float(lv),
            c_history=c_history,
            errors=errors[lv],
            warnings=tuple(warnings),
            gap=g,
        )
    return out


def transport_sweep(path, n, ls, n_check=None):
    """path_transport over a shared l-grid with adaptive step count."""
    ls = [float(v) for v in np.atleast_1d(ls)]
    consts = path.constants()
    if n_check is None:
        n_check = max(9, min(n + 1, 33))
    g, _ = verify_gap_along_path(path, n_check=n_check)
    attempt = n
    while attempt <= STEP_CAP:
        try:
            return _transport_attempt(path, attempt, ls, g, consts)
        except _PredicateFailure:
            attempt *= 2
    raise StepTooLarge(f"step predicates still failing at n={STEP_CAP}")


def path_transport(path, n, l) -> TransportSet:
    """Iterated transport at a single radius l."""
    return transport_sweep(path, n, [l])[float(l)]


# -------------------------------------------------------- impurity form


def _check_product_sector(basis, G, site, impurity_dim):
    """Every sector column must be (same bulk vector) x (impurity vector)."""
    dims = list(G.site_dims)
    n = len(dims)
    d_site = dims[site]
    d0 = d_site // impurity_dim
    shape = dims[:site] + [d0, impurity_dim] + dims[site + 1 :]
    bulk = None
    for i in range(basis.shape[1]):
        tens = basis[:, i].reshape(shape)
        # impurity axis is at position site+1; move it last
        mat = np.moveaxis(tens, site + 1, -1).reshape(-1, impurity_dim)
        U, s, Vh = np.linalg.svd(mat, full_matrices=False)
        if len(s) > 1 and s[1] > 1e-8:
            raise ValueError(
                f"unperturbed sector vector {i} is not a product with the "
                f"impurity factor (second singular value {s[1]:.2e})"
            )
        if bulk is None:
            bulk = U[:, 0]
        else:
            if 1.0 - abs(np.vdot(bulk, U[:, 0])) > 1e-8:
                raise ValueError("sector vectors do not share one bulk factor")


def impurity_transform(path, ts: TransportSet, site, impurity_dim, impurity_basis=None):
    """T_l = sum_ij L_ij I_ji on H_{K_l}, and the projector mismatch.

    The printed error in the source statement is || P' - T^dagger P T ||
    with T mapping the perturbed basis; with our L (which transports the
    s=0 basis forward) the transforming operator is the adjoint of that
    printed T, so the mismatch computed here is || P' - T_l P T_l^dagger ||.
    """
    G = path.graph
    site = int(site)
    if site not in ts.support:
        raise ValueError("impurity site must lie inside the transport region")
    d_site = G.site_dims[site]
    if d_site % impurity_dim:
        raise ValueError("impurity dimension does not divide the site dimension")
    d0 = d_site // impurity_dim
    d = ts.dim
    if impurity_basis is None:
        impurity_basis = np.eye(impurity_dim, dtype=complex)
    phi = np.asarray(impurity_basis, dtype=complex)
    if phi.shape != (impurity_dim, impurity_dim):
        raise ValueError("impurity basis must be square on the impurity factor")
    if d != impurity_dim:
        raise ValueError("sector dimension must equal the impurity dimension")

    sec0 = path.sector(0.0)
    _check_product_sector(sec0.basis, G, site, impurity_dim)

    pos = ts.support.index(site)
    dims = list(ts.dims)
    T_small = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for i in range(d):
        for j in range(d):
            # |phi_j><phi_i| on the impurity factor, identity on the rest
            ketbra = np.outer(phi[:, j], phi[:, i].conj())
            on_site = np.kron(np.eye(d0, dtype=complex), ketbra)
            I_ji = embed_matrix(on_site, (pos,), dims)
            T_small += ts.L[i, j] @ I_ji

    T_full = embed_matrix(T_small, ts.support, G.site_dims)
    P0 = sec0.projector
    P1 = path.sector(1.0).projector
    err = operator_norm(P1 - T_full @ P0 @ T_full.conj().T)
    op = LocalOperator(ts.support, ts.dims, T_small)
    return op, float(err), {"l": ts.l, "n": ts.n}

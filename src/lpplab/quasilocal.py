"""Gaussian filters and localized sector transport.

The construction chain:

  1. choose_filter_params fixes (alpha, T) from (g, mu, C_mu, ||Phi||'_mu,
     v, l) so that the three exponents g^2/4a, aT^2, mu(l - vT) coincide
     at mu g l / (g + 4 C_mu ||Phi||'_mu) = l / xi.
  2. solve_filter_coefficients interpolates a_lambda so the filtered sum
     P_script = sum a_lambda P_lambda acts as the identity on sigma_in.
  3. The truncated time integral

        R_i = sum_lambda a_lambda sqrt(a/pi) int_{-T}^{T} dt e^{-a t^2}
              e^{it(lambda_i0 - lambda)} e^{itH} e^{-itH0}

     is diagonal in the eigenbasis pair: R_i = W_i V0^dagger + comp_i 1
     with W_i = V (C o Phi_i), C = V^dagger V0 and Phi_i the truncated
     Gaussian integral at kappa_a - kappa0_b + lambda_i0 - lambda.  A
     Gauss-Legendre rule in t, sized by an error bound, splits
     e^{i omega t} = e^{i kappa_a t} e^{-i kappa0_b t}, so Phi_i is one
     real matrix product.  comp_i 1 carries the zeroth Dyson term at its
     full (untruncated) value: the |t| >= T remainder of that scalar term
     belongs to R^{<=T}, which is what makes the eps = 0 step exact.
  4. R_i is used only through its normalized partial trace onto K_l, and
     that is taken from the factors (partial_trace_localize(W_i, K_l,
     right=V0) + comp_i 1), so the D x D matrix R_i is never formed.
     The weak step's unlocalized R_i psi is V (C o Phi_i) V0^dagger psi
     + comp_i psi, a few matrix-vector products.
  5. sector_walk chains the sector bases and step coefficients c(m);
     g, certified on [0, 1], sets every filter, so transport_sweep then
     localizes the walk's steps, iterating L^(m) = c(m) R^(m) L^(m-1) on
     H_{K_l}: each R_p L_pq is formed once and accumulated into the
     output blocks it feeds, in the dtype of c and R (real on a real path).

Everything here works on explicit spectral data; no contour integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import lattice
from .exceptions import StepTooLarge
from .kernels import apply_embedded
from .operators import LocalOperator, _span_error, partial_trace_localize
from .sectors import (
    SectorSpectrum,
    _cluster_slices,
    align_phases,
    solve_step_coefficients,
    verify_gap_along_path,
)

# the error the filter's Gauss-Legendre rule is sized for, per entry of Phi
QUAD_TOL = 1e-16
# log rho of the Bernstein ellipses over which the rule's bound is minimized
_LOG_RHO = np.geomspace(1e-3, 10.0, 400)
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

    Each eigenvalue cluster (sectors.CLUSTER_TOL) is merged to one node
    at its mean (the filter weight depends only on the eigenvalue).
    Returns (nodes, a, info).
    """
    vals = np.sort(np.asarray(sigma_in, dtype=float))
    nodes = np.array([vals[sl].mean() for sl in _cluster_slices(vals)])
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


_legendre = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _gauss_rule(alpha, T, scale, theta):
    """Nodes t, weights and size Q of a Gauss-Legendre rule for
    sqrt(a/pi) int_{-T}^{T} e^{-a t^2} f(t) dt, f a sum of e^{i w t} with
    |w| T <= theta and weights of total size `scale`.

    Q is the fewest nodes whose error bound meets QUAD_TOL.  On [-1, 1]
    the integrand is entire and, on the Bernstein ellipse E_rho (where
    |Im x| <= y = (rho - 1/rho)/2), at most M = T sqrt(a/pi) scale
    e^{theta y + a T^2 y^2}; Gauss quadrature errs by at most
    64 M / (15 (rho^2 - 1) rho^{2Q}) (Trefethen, SIAM Review 50 (2008)
    67-87, Thm 4.5), minimized over rho.
    """
    y = np.sinh(_LOG_RHO)
    log_err = (np.log(64 / 15 * T * np.sqrt(alpha / np.pi) * scale / QUAD_TOL)
               + theta * y + alpha * T * T * y * y - np.log(np.expm1(2 * _LOG_RHO)))
    Q = max(1, int(np.ceil((log_err / (2 * _LOG_RHO)).min())))
    x, w = _legendre(Q)
    return T * x, T * w * np.sqrt(alpha / np.pi) * np.exp(-alpha * (T * x) ** 2), Q


# ------------------------------------------------------------ localized R


def _filter_factor(S0, S, C, shift, params: FilterParams):
    """W = V (C o Phi) and comp for one lambda_i0, shift = lambda_i0 - params.nodes.

    Phi[a, b] = sum_lambda a_lambda g_T(kappa_a - kappa0_b + shift_lambda),
    g_T(w) = sqrt(a/pi) int_{-T}^{T} e^{-a t^2} e^{iwt} dt, by _gauss_rule:
    with c_q = w_q sum_lambda a_lambda e^{i shift_lambda t_q}, Phi is
    Re(E diag(c) E0^dagger), E = e^{i kappa t} and E0 = e^{i kappa0 t},
    one real product of [Re, Im] factors; the imaginary part cancels
    between the nodes +-t, since a, shift and omega are real.  Both
    spectra are centred on one midpoint, which leaves Phi as it is and
    keeps the phases small.  comp = sum_lambda a_lambda (e^{-shift^2/4a}
    - g_T(shift)) takes g_T from the same rule, so R_i = 1 at eps = 0 to
    rounding.

    Returns W, comp, Q and theta = max|omega| T, which sized the rule.
    """
    alpha, T, a = params.alpha, params.T, params.a
    kap, kap0 = S.values, S0.values
    mid = (min(kap.min(), kap0.min()) + max(kap.max(), kap0.max())) / 2
    reach = max(abs(kap.max() - kap0.min()), abs(kap.min() - kap0.max()))
    theta = float((reach + np.abs(shift).max()) * T)
    t, w, Q = _gauss_rule(alpha, T, np.abs(a).sum(), theta)
    c = w * (np.exp(1j * np.outer(t, shift)) @ a)
    E = np.exp(1j * np.outer(kap - mid, t)) * c
    E0 = np.exp(1j * np.outer(kap0 - mid, t))
    Phi = np.hstack([E.real, E.imag]) @ np.hstack([E0.real, E0.imag]).T
    comp = float(a @ np.exp(-(shift**2) / (4 * alpha)) - c.real.sum())
    return S.vectors @ (C * Phi), comp, Q, theta


def _localized_R_batch(S0, S, lam0s, params: FilterParams, region, G, overlap=None,
                       states=None):
    """Tr_E(R_i^{<=T}) / d_E on `region` for several lambda_i0 in one sweep.

    With C = V^dagger V0 the integrand is diagonal in the eigenbasis pair
    (module docstring, step 3):

        R_i = W_i V0^dagger + comp_i 1,   (W_i, comp_i) from _filter_factor.

    R_i is localized from its factors and never formed.  Phi is real, so
    the result is real when both eigenbases are.  Entries whose lambda_i0
    are bitwise equal (a degenerate sector) share one W.

    Returns the (n_i, d_K, d_K) localized matrices, the columns
    R_i states[:, i] when `states` (D, n_i) is given (else None), and
    the largest (Q, max|omega| T) of the batch's rules.
    """
    if params.nodes is None or params.a is None:
        raise ValueError("filter coefficients not solved; call with_coefficients")
    S0.require_complete("the localized R")
    S.require_complete("the localized R")
    lam0s = np.asarray(lam0s, dtype=float)
    C = overlap if overlap is not None else S.vectors.conj().T @ S0.vectors
    shifts = lam0s[:, None] - params.nodes[None, :]
    dK = int(np.prod([G.site_dims[x] for x in region], dtype=np.int64))
    R_loc = np.empty((len(lam0s), dK, dK), dtype=np.result_type(C, S.vectors))
    R_states = None
    if states is not None:
        R_states = np.empty(states.shape, dtype=np.result_type(R_loc, states))
        coords = S0.vectors.conj().T @ states
    rule = (0, 0.0)
    _, first, inverse = np.unique(lam0s, return_index=True, return_inverse=True)
    for k, i in enumerate(first):
        W, comp, *size = _filter_factor(S0, S, C, shifts[i], params)
        rule = tuple(map(max, rule, size))
        loc = partial_trace_localize(W, region, G, right=S0.vectors).matrix
        loc[np.diag_indices(dK)] += comp
        members = np.flatnonzero(inverse == k)
        R_loc[members] = loc
        if states is not None:
            R_states[:, members] = W @ coords[:, members] + comp * states[:, members]
    return R_loc, R_states, rule


# ------------------------------------------------------------- weak step


def _filter(g, consts, l, sigma_in):
    """FilterParams for radius l with the coefficients on sigma_in solved,
    and the coefficient solver's warnings."""
    params = choose_filter_params(
        g, consts["mu"], consts["c_mu"], consts["phi_prime_norm"], consts["v"], l
    )
    nodes, a, info = solve_filter_coefficients(sigma_in, params.alpha)
    return params.with_coefficients(nodes, a), info["warnings"]


def weak_step(path, s0, eps, ls):
    """Localized single-step transformations R_i^l and their errors.

    One step over the radii in `ls`, which share all spectral work.
    Returns a dict of per-l lists: the localized errors
    ||(P(s0+eps) - R_i^l) psi_i(s0)||, the unlocalized errors, the
    filter parameters and the largest (Q, max|omega| T) of the filter's
    rules, plus the gap, its certified bound and the solver warnings.
    """
    consts = path.constants()
    sec0 = path.sector(s0)
    sec1 = path.sector(s0 + eps)
    g, _, certified = verify_gap_along_path(path, [s0, s0 + eps])
    S0, S1 = path.spectral(s0), path.spectral(s0 + eps)
    C = S1.vectors.conj().T @ S0.vectors
    K = path.K
    G = path.graph
    psi0 = sec0.basis
    # P(s0+eps) psi_i(s0), shared across the l-sweep
    proj0 = sec1.basis @ (sec1.basis.conj().T @ psi0)

    out = {"l": [], "errors": [], "unlocalized_errors": [], "params": [], "rules": [],
           "warnings": [], "gap": g, "gap_certified": certified}
    for lv in ls:
        params, warns = _filter(g, consts, lv, sec1.values_in)
        Kl = tuple(sorted(lattice.fatten(G, K, lv)))
        R_loc, R_psi0, rule = _localized_R_batch(
            S0, S1, sec0.values_in, params, Kl, G, overlap=C, states=psi0
        )
        errs, raw_errs = [], []
        for i in range(sec0.dim):
            approx = apply_embedded(R_loc[i], Kl, G.site_dims, psi0[:, i])
            errs.append(float(np.linalg.norm(proj0[:, i] - approx)))
            raw_errs.append(float(np.linalg.norm(proj0[:, i] - R_psi0[:, i])))
        out["l"].append(float(lv))
        out["errors"].append(errs)
        out["unlocalized_errors"].append(raw_errs)
        out["params"].append(params)
        out["rules"].append(rule)
        out["warnings"].extend(warns)
    return out


# ---------------------------------------------------------- path transport


@dataclass(frozen=True)
class SectorWalk:
    """Sectors at the grid ss, each aligned to the one before, the step
    coefficients between them, their largest row 1-norm and its 2 sqrt(D)
    bound, the gap and its bound on [0, 1], and the sectors' warnings."""

    ss: np.ndarray
    sectors: tuple
    coefficients: tuple
    c_norm_max: float
    c_bound: float
    gap: float
    gap_certified: float
    warnings: tuple

    @property
    def n(self):
        return len(self.ss) - 1


def sector_walk(path, n) -> SectorWalk:
    """The sector walk over n steps, doubled until every step aligns and
    meets the 2 sqrt(D) bound; the gap is certified on the first grid."""
    g, _, certified = verify_gap_along_path(path, np.linspace(0.0, 1.0, n + 1))
    sec0 = path.sector(0.0)
    while n <= STEP_CAP:
        ss = np.linspace(0.0, 1.0, n + 1)
        secs, cs, norms = [sec0], [], []
        try:
            for s in ss[1:]:
                sec = align_phases(secs[-1], path.sector(s))
                c, info = solve_step_coefficients(secs[-1], sec)
                if info["violations"]:
                    raise StepTooLarge("coefficient rows exceed 2 sqrt(D)")
                secs.append(sec)
                cs.append(c)
                norms.append(info["one_norms"].max())
        except StepTooLarge:
            n *= 2
            continue
        return SectorWalk(
            ss=ss, sectors=tuple(secs), coefficients=tuple(cs),
            c_norm_max=float(max(norms)), c_bound=info["bound"], gap=g,
            gap_certified=certified,
            warnings=tuple(dict.fromkeys(w for sec in secs for w in sec.warnings)),
        )
    raise StepTooLarge(f"step predicates still failing at n={STEP_CAP}")


@dataclass
class TransportSet:
    """Iterated localized transport L_ij^l over a SectorWalk's n steps.

    n, c_norm_max, c_bound, gap, gap_certified and sector0 (the s = 0
    sector) are the walk's, and warnings the walk's and the filter's;
    rule is the largest (Q, max|omega| T) of the filter's rules.
    """

    L: np.ndarray  # (d, d, DK, DK) matrices on H_{K_l}
    support: tuple
    dims: tuple
    n: int
    l: float
    c_norm_max: float
    c_bound: float
    errors: np.ndarray
    warnings: tuple
    gap: float
    sector0: SectorSpectrum
    rule: tuple = (0, 0.0)
    gap_certified: float | None = None

    @property
    def dim(self):
        return self.L.shape[0]


def _recursion_step(c, R_small, L):
    """L^(m)_{iq} = sum_p c_{ip} R_p L^(m-1)_{pq}, accumulated into the
    output one (p, q) product at a time: besides L and the output, only
    one D_K x D_K product and its scaled copy are held."""
    out = np.zeros(L.shape, dtype=np.result_type(c, R_small, L))
    RL = np.empty(L.shape[2:], dtype=out.dtype)
    for p, q in np.ndindex(*L.shape[:2]):
        np.matmul(R_small[p], L[p, q], out=RL)
        for i in range(len(c)):
            out[i, q] += c[i, p] * RL
    return out


def transport_sweep(path, n, ls):
    """path_transport over a shared l-grid: sector_walk(path, n), then one
    localization pass over its steps for every radius in ls."""
    ls = [float(v) for v in np.atleast_1d(ls)]
    consts = path.constants()
    walk = sector_walk(path, n)
    G = path.graph
    d = walk.sectors[0].dim

    regions = {lv: tuple(sorted(lattice.fatten(G, path.K, lv))) for lv in ls}
    dims = {lv: tuple(G.site_dims[x] for x in Kl) for lv, Kl in regions.items()}
    # float64 identity: the first step promotes L to result_type(c, R)
    L = {lv: np.multiply.outer(np.eye(d), np.eye(np.prod(dims[lv], dtype=np.int64)))
         for lv in ls}

    rule = {lv: (0, 0.0) for lv in ls}
    warnings = list(walk.warnings)
    for m, c in enumerate(walk.coefficients, 1):
        sec_prev, sec_next = walk.sectors[m - 1], walk.sectors[m]
        S_prev, S_next = path.spectral(walk.ss[m - 1]), path.spectral(walk.ss[m])
        C = S_next.vectors.conj().T @ S_prev.vectors
        for lv in ls:
            params, warns = _filter(walk.gap, consts, lv, sec_next.values_in)
            warnings.extend(warns)
            R_small, _, size = _localized_R_batch(
                S_prev, S_next, sec_prev.values_in, params, regions[lv], G, overlap=C
            )
            rule[lv] = tuple(map(max, rule[lv], size))
            L[lv] = _recursion_step(c, R_small, L[lv])

    # endpoint reconstruction errors
    psi0 = walk.sectors[0].basis
    psi1 = walk.sectors[-1].basis
    out = {}
    for lv in ls:
        errs = []
        for i in range(d):
            acc = sum(
                apply_embedded(L[lv][i, j], regions[lv], G.site_dims, psi0[:, j])
                for j in range(d)
            )
            errs.append(float(np.linalg.norm(psi1[:, i] - acc)))
        out[lv] = TransportSet(
            L=L[lv],
            support=regions[lv],
            dims=dims[lv],
            n=walk.n,
            l=lv,
            c_norm_max=walk.c_norm_max,
            c_bound=walk.c_bound,
            errors=np.array(errs),
            warnings=tuple(warnings),
            gap=walk.gap,
            sector0=walk.sectors[0],
            rule=rule[lv],
            gap_certified=walk.gap_certified,
        )
    return out


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


def impurity_transform(path, ts: TransportSet, site, impurity_dim):
    """T_l = sum_ij L_ij I_ji on H_{K_l}, and the projector mismatch.

    The printed error in the source statement is || P' - T^dagger P T ||
    with T mapping the perturbed basis; with our L (which transports the
    s=0 basis forward) the transforming operator is the adjoint of that
    printed T, so the mismatch computed here is || P' - T_l P T_l^dagger ||.

    It is taken in the sector span: with P = B0 B0^dagger and
    P' = B1 B1^dagger, both terms are rank-d operators on
    span[B1, T_l B0], so the norm is that of a 2d x 2d matrix
    (operators._span_error), exact although T_l B0 need not be
    orthonormal.  T_l is applied locally to B0, the basis of
    ts.sector0, and never embedded.  Returns (T_l as a LocalOperator,
    mismatch).
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
    if d != impurity_dim:
        raise ValueError("sector dimension must equal the impurity dimension")

    sec0 = ts.sector0
    _check_product_sector(sec0.basis, G, site, impurity_dim)

    # I_ji is |j><i| on the impurity factor (the fastest axis of the
    # site) and the identity elsewhere, so L_ij I_ji moves column
    # (left, bulk, j, right) of L_ij to (left, bulk, i, right)
    pos = ts.support.index(site)
    DK = ts.L.shape[-1]
    left = int(np.prod(ts.dims[:pos], dtype=np.int64))
    L7 = ts.L.reshape(d, d, DK, left, d0, d, DK // (left * d_site))
    T_small = np.einsum("ijxlajr->xlair", L7).reshape(DK, DK)

    TB0 = apply_embedded(T_small, ts.support, G.site_dims, sec0.basis)
    err = _span_error(path.sector(1.0).basis, TB0)
    return LocalOperator(ts.support, ts.dims, T_small), err

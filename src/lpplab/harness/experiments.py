"""Experiment runners behind the CLI.

Each runner maps a validated config dict to a plain report:

    {"experiment": ...,
     "tables": [{"name", "header", "rows"}, ...],
     "records": {name: DecayRecord, ...},
     "constants": {...},
     "checks": [{"name", "passed", "detail"}, ...],
     "warnings": [...]}

Runners do no file I/O and draw randomness only from the rng argument,
so a run is reproducible from (config, seed) alone.  Sweeps go through
blas.pmap, which preserves grid order in the aggregation regardless of
the worker count and gives each worker an equal share of the thread
budget (see blas.py).
"""

from __future__ import annotations

import math

import numpy as np

from .. import lattice, models, quasilocal
from .. import spectral_flow as sflow
from ..blas import fan_out, pmap
from ..exceptions import GapClosed, NotApplicable
from ..interactions import (
    DecayFunctions,
    InteractionFamily,
    decay_constants,
    lr_bound_rhs,
    xi,
)
from ..kernels import apply_embedded
from ..operators import (
    LocalOperator,
    compress,
    embed_matrix,
    flip_action,
    operator_norm,
    sigma_x,
    sigma_y,
    sigma_z,
)
from ..sectors import HamiltonianPath
from .fitting import DecayRecord

PAULI = {"x": sigma_x, "y": sigma_y, "z": sigma_z}


# ------------------------------------------------------------- utilities


def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


def _tol(config, key, default):
    return float(config.get("tolerances", {}).get(key, default))


def _fit_checks(config, record):
    """decay-rate-positive and fit-quality for a record's decay fit."""
    r2_min = _tol(config, "r_squared_min", 0.9)
    return [
        _check(
            "decay-rate-positive",
            record.mu_hat is not None and record.mu_hat > 0,
            f"mu_hat = {record.mu_hat}",
        ),
        _check(
            "fit-quality",
            record.r_squared is not None and record.r_squared >= r2_min,
            f"R^2 = {record.r_squared}",
        ),
    ]


def _sector_rule(config):
    sec = config.get("sector", {})
    if sec.get("rule", "fixed_d") == "fixed_d":
        return ("fixed_d", int(sec.get("d", 1)))
    return ("window", float(sec["lo"]), float(sec["hi"]))


def _drop_tenfold(e_first, e_last, floor):
    """error(l_max) <= error(l_min)/10, treating sub-floor values as floor."""
    return max(e_last, floor) * 10.0 <= max(e_first, floor) or e_last <= floor


def _monotone(errs, floor):
    vals = [max(float(e), floor) for e in errs]
    return all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


def _rule_sizes(rules):
    """Per radius, the largest node count and max|omega| T of the
    filter's Gauss-Legendre rules, as manifest constants."""
    nodes, omega_T = zip(*rules)
    return {"quadrature_nodes": list(nodes), "omega_T_max": list(omega_T)}


def _constants(phi, decay, g=None):
    """The decay-framework constants every record carries, with the gap g
    and the locality length xi when g is given."""
    out = decay_constants(phi, decay)
    if g is not None:
        out["g"] = float(g)
        out["xi"] = xi(decay.mu, out["v"], float(g))
    return out


def build_model(mcfg):
    """The Model of a config's model section."""
    mcfg = dict(mcfg or {})
    kind = mcfg.pop("kind", "transverse-field-Ising")
    if kind in ("transverse-field-Ising", "xy-with-potential"):
        mcfg.setdefault("n", 10)
        if kind == "xy-with-potential":
            mcfg.setdefault("gamma", 1.0)
        return models.build_gapped_chain(kind, mcfg)
    if kind == "xy-ring":
        spec = models.XYModelSpec(
            L=int(mcfg.get("L", 10)),
            nu=int(mcfg.get("nu", 1)),
            gamma=float(mcfg.get("gamma", 1.0)),
            u=mcfg.get("u"),
        )
        return models.build_xy_model(spec)
    if kind == "toric":
        return models.build_toric_code(int(mcfg.get("L", 2)))[0]
    raise ValueError(f"unknown model kind {kind!r}")


def _expectation(psi, matrix, sites, dims):
    return float(np.vdot(psi, apply_embedded(matrix, sites, dims, psi)).real)


def _sector_deviation(B, sigma, site, dims, value):
    """max |<psi, sigma_site psi> - value| over unit psi in the span of B.

    sigma is Hermitian, so this is ||B^dag sigma_site B - value 1||: the
    same for every orthonormal basis B of a (possibly degenerate) sector,
    unlike a maximum over B's columns.
    """
    M = compress(B, sigma, (site,), dims) - value * np.eye(B.shape[1])
    return operator_norm(M, hermitian=True)


def _internal_mixer(dI):
    """Unit-norm Hermitian hopping chain on the internal space.

    dI=1 degenerates to the identity, which turns the impurity coupling
    into a plain single-site perturbation (the trivial-internal-space
    consistency case).
    """
    if dI == 1:
        return np.eye(1, dtype=complex)
    M = np.zeros((dI, dI), dtype=complex)
    for a in range(dI - 1):
        M[a, a + 1] = M[a + 1, a] = 1.0
    return M / operator_norm(M, hermitian=True)


def _impurity_slope(icfg, site_dim):
    """(dim(I), W): the slope of the impurity coupling s W on the
    enlarged site, strength * pauli (x) mixer."""
    dI = int(icfg.get("dim", 2))
    theta = float(icfg.get("strength", 0.5))
    bulk = PAULI[icfg.get("pauli", "z")]
    if site_dim != bulk.shape[0]:
        raise ValueError("impurity coupling assumes a spin-1/2 bulk site")
    return dI, theta * np.kron(bulk, _internal_mixer(dI))


def _site_slope(G, site, W):
    """The slope family of a ramp s W at one site."""
    term = LocalOperator((site,), (G.site_dims[site],), W, hermitian=True)
    return InteractionFamily([term])


# --------------------------------------------------------------- lr-cone


def _probe_commutator_norm(A, sigma, site, dims):
    """||[A, sigma_site]|| for Hermitian A on the full volume and a one-site
    probe sigma with eigenvalues +-1.

    With sigma = P+ - P-, the commutator is 2 (P- A P+ - P+ A P-), so its
    norm is 2 ||P+ A P-||: the largest singular value of one off-diagonal
    block, a quarter of A, read off after rotating `site` into sigma's
    eigenbasis.
    """
    w, R = np.linalg.eigh(sigma)
    left = int(np.prod(dims[:site], dtype=np.int64))
    right = int(np.prod(dims[site + 1:], dtype=np.int64))
    A6 = A.reshape(left, dims[site], right, left, dims[site], right)
    blk = np.tensordot(A6, R[:, w < 0], axes=(4, 0))
    blk = np.tensordot(R[:, w > 0].conj(), blk, axes=(0, 1))
    rows = int(np.prod(blk.shape[:3]))
    return 2.0 * operator_norm(blk.reshape(rows, -1))


def _real_left(U, Y):
    """U @ Y for real U and C-contiguous Y: for complex Y one real
    product on Y's float view, not a complex one with U promoted."""
    if Y.dtype.kind != "c":
        return U @ Y
    return (U @ Y.view(float)).view(complex)


def _flip_commutators(S, sigma, site_a, n_sites):
    """t -> (b -> ||[A(t), sigma_b]||) read from the spin-flip blocks.

    A Pauli maps parity q to parity p = eps q (eps = -1 for y and z, +1
    for x), and its (p, q) block is a phased permutation
    (operators.flip_action): S_q for sigma_a, T_q for sigma_b.  A(t)'s
    (p, q) block is A_q(t) = U_p e^{i L_p t} (U_p^T S_q U_q) e^{-i L_q t}
    U_q^T, so [A(t), sigma_b] is block-diagonal with (p, p) block
    K = A_q T_q^dag - T_q A_q^dag.  K has the norm of T_q^dag K T_q =
    Z - Z^dag, where Z = T_q^dag A_q(t) is a row gather of A_q(t): one
    `eigvalsh` at D/2.  For y and z the source q = -1 suffices, since
    the other diagonal block is -T^dag K T; for x both parities count and
    the norm is the larger.  No matrix here is larger than D/2 x D/2.
    """
    blocks = {b.parity: b for b in S.blocks}
    eps = flip_action(sigma, site_a, n_sites, 1)[0]
    sources = (-1,) if eps < 0 else (1, -1)
    W = {}
    for q in sources:
        p, r, phase = flip_action(sigma, site_a, n_sites, q)
        SU = np.empty(blocks[q].vectors.shape, np.result_type(phase, float))
        SU[r] = phase[:, None] * blocks[q].vectors
        W[q] = _real_left(blocks[p].vectors.T, SU)

    def at(t):
        A = {}
        for q in sources:
            bp, bq = blocks[q * eps], blocks[q]
            M = np.outer(np.exp(1j * t * bp.values), np.exp(-1j * t * bq.values))
            M *= W[q]
            M = _real_left(bp.vectors, M)
            A[q] = _real_left(bq.vectors, M.T.copy()).T  # (U_q (U_p M)^T)^T

        def norm(b):
            out = 0.0
            for q in sources:
                _, r, phase = flip_action(sigma, b, n_sites, q)
                Z = A[q][r] * phase.conj()[:, None]
                K = Z - Z.conj().T
                K *= 1j
                out = max(out, float(np.abs(np.linalg.eigvalsh(K)).max()))
            return out

        return norm

    return at


def _full_commutators(S, sigma, site_a, dims):
    """t -> (b -> ||[A(t), sigma_b]||) from A(t) on the full volume, for
    models without a declared spin flip."""
    V, evals = S.vectors, S.values
    WA = V.conj().T @ embed_matrix(sigma, (site_a,), dims) @ V

    def at(t):
        U = V * np.exp(1j * evals * t)
        At = U @ WA @ U.conj().T
        return lambda b: _probe_commutator_norm(At, sigma, b, dims)

    return at


def run_lr_cone(config, workers=1, rng=None):
    """Commutator growth ||[A(t), B]|| against the Lieb-Robinson bound.

    A is the probe Pauli on the perturbation site, evolved exactly from
    the dense spectrum, and B the same Pauli on one site per distance.
    On a model that declares the spin flip (the transverse-field Ising
    chain) the norms come from the two D/2 parity blocks of the
    spectrum: an odd probe (y, z) takes one `eigvalsh` of a D/2 matrix
    per norm and an even probe (x) two, and no D x D matrix is formed
    (_flip_commutators).  Other models form A(t) once per t in the
    computational basis; since B = P+ - P- with P+- its eigenprojectors,

        ||[A(t), B]|| = 2 ||P+ A(t) P-||,

    one singular value of a half-dimension block per distance rather
    than a full-dimension commutator and its spectrum.  The time grid is
    split over the thread budget (blas.fan_out): each thread takes a
    contiguous range of times and their distances in turn, so every core
    is busy from the first product to the last norm whatever --workers
    is, and the rows are the same at any budget.
    """
    model = build_model(config.get("model", {}))
    G = model.graph
    mu = float(config.get("mu", 1.0))
    decay = DecayFunctions(G, mu)
    phi = model.family
    consts = _constants(phi, decay)
    warnings = []

    sigma = PAULI[config.get("probes", {}).get("pauli", "z")]
    site_a = int(config.get("perturbation", {}).get("site", 0))
    sweep = config.get("sweep", {})
    t_max = float(sweep.get("t_max", 1.0))
    times = np.linspace(0.0, t_max, int(sweep.get("n_times", 20)))
    dists = sweep.get("distances")
    if dists is None:
        reach = max(G.distance(site_a, y) for y in G.sites())
        dists = list(range(1, int(reach) + 1))
    partners = {}
    for d in dists:
        hits = [y for y in G.sites() if G.distance(site_a, y) == int(d)]
        if hits:
            partners[int(d)] = hits[0]
        else:
            warnings.append(f"no site at distance {d} from site {site_a}; skipped")

    S = model.spectral(mode="dense")
    if S.blocks:
        commutators = _flip_commutators(S, sigma, site_a, G.n_sites)
    else:
        commutators = _full_commutators(S, sigma, site_a, G.site_dims)
    A_loc = LocalOperator((site_a,), (G.site_dims[site_a],), sigma)
    B_loc = {
        d: LocalOperator((b,), (G.site_dims[b],), sigma) for d, b in partners.items()
    }

    pairs = sorted(partners.items())

    def one_time(t):
        norm = commutators(t)
        out = []
        for d, b in pairs:
            bound = lr_bound_rhs(A_loc, B_loc[d], t, phi, decay)
            out.append((float(t), d, b, norm(b), float(bound)))
        return out

    grid = [None] * len(times)

    def sweep(lo, hi):
        for i in range(lo, hi):
            grid[i] = one_time(times[i])

    with fan_out() as run:
        run(sweep, len(times))
    rows = [r for chunk in grid for r in chunk]

    viol = [r for r in rows if r[3] > r[4] * (1 + 1e-9) + 1e-12]
    checks = [
        _check(
            "lieb-robinson-bound",
            not viol,
            f"{len(viol)} violations in {len(rows)} grid points"
            if viol
            else f"all {len(rows)} grid points within the bound",
        )
    ]

    thresh = _tol(config, "cone_threshold", 1e-2)
    crossings = []
    for d in sorted(partners):
        hit = next((r[0] for r in rows if r[1] == d and r[3] >= thresh), None)
        if hit is not None and hit > 0:
            crossings.append((hit, d))
    if len(crossings) >= 2:
        ts_, ds_ = zip(*crossings)
        slope = float(np.polyfit(ts_, ds_, 1)[0])
        checks.append(
            _check(
                "cone-slope",
                slope <= consts["v"] * (1 + 1e-9),
                f"empirical slope {slope:.4f} vs v = {consts['v']:.4f}",
            )
        )
    else:
        warnings.append("threshold crossed at fewer than two distances; slope not fitted")
        checks.append(_check("cone-slope", True, "vacuous: too few threshold crossings"))

    tail = [(float(d), m) for t, d, _, m, _ in rows if t == times[-1]]
    record = DecayRecord.measure(
        tail, reference_rate=mu, constants=consts, warnings=warnings
    )

    return {
        "experiment": "lr-cone",
        "tables": [
            {
                "name": "lr-cone",
                "header": ["t", "d", "site_b", "measured", "bound"],
                "rows": rows,
            }
        ],
        "records": {"commutator_tail": record},
        "constants": consts,
        "checks": checks,
        "warnings": warnings,
    }


# ------------------------------------------------------------- weak-step


def _ramp_path(config, model, decay):
    p = config.get("perturbation", {})
    site = int(p.get("site", 0))
    W = float(p.get("strength", 1.0)) * PAULI[p.get("pauli", "z")]
    return HamiltonianPath(
        model.graph, model.family, W=_site_slope(model.graph, site, W),
        rule=_sector_rule(config), decay=decay,
    )


def run_weak_step(config, workers=1, rng=None):
    model = build_model(config.get("model", {}))
    decay = DecayFunctions(model.graph, float(config.get("mu", 1.0)))
    path = _ramp_path(config, model, decay)
    p = config.get("perturbation", {})
    s0 = float(p.get("s0", 0.0))
    eps = float(p.get("epsilon", 0.05))
    ls = [float(v) for v in config.get("sweep", {}).get("l_values", [1, 2, 3, 4, 5])]

    out = quasilocal.weak_step(path, s0, eps, ls)
    consts = _constants(model.family, decay, g=out["gap"])
    errs = [float(max(e)) for e in out["errors"]]
    unloc = [float(max(e)) for e in out["unlocalized_errors"]]
    warnings = list(out["warnings"])

    record = DecayRecord.measure(
        list(zip(out["l"], errs)),
        reference_rate=1.0 / consts["xi"],
        constants=consts,
        warnings=warnings,
    )
    rows = [
        (l, e, u, prm.alpha, prm.T, prm.mu_prime)
        for l, e, u, prm in zip(out["l"], errs, unloc, out["params"])
    ]

    floor = _tol(config, "check_floor", 1e-10)
    checks = _fit_checks(config, record) + [
        _check(
            "tenfold-drop",
            _drop_tenfold(errs[0], errs[-1], floor),
            f"error {errs[0]:.3e} at l={ls[0]:g} -> {errs[-1]:.3e} at l={ls[-1]:g}",
        ),
    ]

    return {
        "experiment": "weak-step",
        "tables": [
            {
                "name": "weak-step",
                "header": ["l", "error", "unlocalized_error", "alpha", "T", "mu_prime"],
                "rows": rows,
            }
        ],
        "records": {"localized_step_error": record},
        "constants": dict(consts, s0=s0, epsilon=eps, gap_certified=out["gap_certified"],
                          **_rule_sizes(out["rules"])),
        "checks": checks,
        "warnings": warnings,
    }


# ------------------------------------------------------------- transport


def run_transport(config, workers=1, rng=None):
    model = build_model(config.get("model", {}))
    decay = DecayFunctions(model.graph, float(config.get("mu", 1.0)))
    path = _ramp_path(config, model, decay)
    sweep = config.get("sweep", {})
    ls = [float(v) for v in sweep.get("l_values", [1, 2, 3, 4, 5])]
    n0 = int(sweep.get("n_steps", 4))

    tsets = quasilocal.transport_sweep(path, n0, ls)
    first = tsets[ls[0]]
    consts = _constants(model.family, decay, g=first.gap)
    c_bound = first.c_bound
    c_of = {l: tsets[l].c_norm_max for l in ls}
    c_max = max(c_of.values())

    errs = [float(tsets[l].errors.max()) for l in ls]
    warnings = list(first.warnings)
    record = DecayRecord.measure(
        list(zip(ls, errs)),
        reference_rate=1.0 / consts["xi"],
        constants=consts,
        warnings=warnings,
    )
    rows = [(l, e, tsets[l].n, c_of[l]) for l, e in zip(ls, errs)]

    floor = _tol(config, "check_floor", 1e-10)
    checks = _fit_checks(config, record) + [
        _check(
            "monotone-decay",
            _monotone(errs, floor),
            f"errors {', '.join(f'{e:.3e}' for e in errs)}",
        ),
        _check(
            "coefficient-one-norms",
            c_max <= c_bound + 1e-12,
            f"max ||c_i||_1 = {c_max:.4f} vs 2 sqrt(D) = {c_bound:.4f}",
        ),
    ]

    return {
        "experiment": "transport",
        "tables": [
            {
                "name": "transport",
                "header": ["l", "error", "n_steps", "c_norm_max"],
                "rows": rows,
            }
        ],
        "records": {"transport_error": record},
        "constants": dict(consts, gap_certified=first.gap_certified,
                          **_rule_sizes(tsets[l].rule for l in ls)),
        "checks": checks,
        "warnings": warnings,
    }


# --------------------------------------------------------- impurity-lppl


def run_impurity_lppl(config, workers=1, rng=None):
    model = build_model(config.get("model", {}))
    G = model.graph
    n = G.n_sites
    icfg = config.get("impurity", {})
    k = int(icfg.get("site", n // 2))
    dI, W = _impurity_slope(icfg, G.site_dims[k])
    mu = float(config.get("mu", 1.0))

    path = models.attach_impurity(model, k, dI, W, mu=mu)
    G2 = path.graph
    sweep = config.get("sweep", {})
    ls = [float(v) for v in sweep.get("l_values", [1, 2, 3, 4])]
    n0 = int(sweep.get("n_steps", 4))

    tsets = quasilocal.transport_sweep(path, n0, ls)
    warnings = list(tsets[ls[0]].warnings)
    consts = _constants(model.family, DecayFunctions(G, mu), g=tsets[ls[0]].gap)
    # for the manifest only: step counts after doublings, the certified gap, rule sizes
    steps = {"n_steps_final": tsets[ls[0]].n, "gap_certified": tsets[ls[0]].gap_certified,
             **_rule_sizes(tsets[l].rule for l in ls)}

    rows, proj_pts = [], []
    for l in ls:
        _, err = quasilocal.impurity_transform(path, tsets[l], k, dI)
        proj_pts.append((l, err))
        rows.append(("projector", l, err))

    # expectation sweep: exact dressed sector against the bulk ground state
    sigma = PAULI[config.get("probes", {}).get("pauli", "z")]
    B1 = path.sector(1.0).basis
    gs = model.spectral(mode="dense").vectors[:, 0]
    exp_pts = []
    for l in ls:
        xs = [x for x in G.sites() if G.distance(x, k) == int(l)]
        if not xs:
            warnings.append(f"no probe site at distance {int(l)} from the impurity")
            continue
        devs = [
            _sector_deviation(
                B1, sigma, x, G2.site_dims, _expectation(gs, sigma, (x,), G.site_dims)
            )
            for x in xs
        ]
        exp_pts.append((l, float(max(devs))))
        rows.append(("expectation", l, float(max(devs))))

    rec_proj = DecayRecord.measure(
        proj_pts, reference_rate=1.0 / consts["xi"], constants=consts
    )
    rec_exp = DecayRecord.measure(
        exp_pts, reference_rate=1.0 / consts["xi"], constants=consts
    )

    r2_min = _tol(config, "r_squared_min", 0.9)
    checks = [
        _check(
            "projector-fit-quality",
            rec_proj.r_squared is not None and rec_proj.r_squared >= r2_min,
            f"R^2 = {rec_proj.r_squared}, mu_hat = {rec_proj.mu_hat}",
        ),
        _check(
            "expectation-fit-quality",
            rec_exp.r_squared is not None and rec_exp.r_squared >= r2_min,
            f"R^2 = {rec_exp.r_squared}, mu_hat = {rec_exp.mu_hat}",
        ),
    ]

    if config.get("control", True):
        dk = G.site_dims[k]
        zero = np.zeros((dk * dI, dk * dI), dtype=complex)
        path0 = models.attach_impurity(model, k, dI, zero, mu=mu)
        ts0 = quasilocal.path_transport(path0, 2, ls[0])
        steps["control_n_steps_final"] = ts0.n
        _, err0 = quasilocal.impurity_transform(path0, ts0, k, dI)
        B0 = path0.sector(1.0).basis
        far = max(G.sites(), key=lambda x: G.distance(x, k))
        ref0 = _expectation(gs, sigma, (far,), G.site_dims)
        dev0 = _sector_deviation(B0, sigma, far, G2.site_dims, ref0)
        ctol = _tol(config, "control_residual", 1e-10)
        checks.append(
            _check("control-transform", err0 <= ctol, f"W=0 projector error {err0:.3e}")
        )
        checks.append(
            _check(
                "control-expectation",
                dev0 <= ctol,
                f"W=0 expectation deviation {dev0:.3e}",
            )
        )

    return {
        "experiment": "impurity-lppl",
        "tables": [
            {"name": "impurity-lppl", "header": ["series", "x", "value"], "rows": rows}
        ],
        "records": {"projector_error": rec_proj, "expectation_deviation": rec_exp},
        "constants": dict(consts, **steps),
        "checks": checks,
        "warnings": warnings,
    }


# ------------------------------------------------------------ clustering


def run_clustering(config, workers=1, rng=None):
    mode = config.get("mode", "bulk")
    model = build_model(config.get("model", {}))
    G = model.graph
    mu = float(config.get("mu", 1.0))
    decay = DecayFunctions(G, mu)
    sigma = PAULI[config.get("probes", {}).get("pauli", "z")]
    warnings = []
    checks = []
    records = {}

    if mode == "bulk":
        S = model.spectral(mode="dense")
        gap = float(S.values[1] - S.values[0])
        if gap < _tol(config, "degeneracy_gap", 1e-8):
            raise ValueError(
                f"bulk ground state is degenerate (gap {gap:.3e}); "
                "clustering needs a unique ground state"
            )
        psi = S.vectors[:, 0]
        K = ()
    else:
        icfg = config.get("impurity", {})
        k = int(icfg.get("site", G.n_sites // 2))
        W = float(icfg.get("strength", 3.0)) * PAULI[icfg.get("pauli", "z")]
        path = HamiltonianPath(G, model.family, W=_site_slope(G, k, W), rule=_sector_rule(config))
        # step coefficient norms on the same perturbed path; the walk ends
        # at s = 1, whose spectrum the path keeps
        walk = quasilocal.sector_walk(path, int(config.get("sweep", {}).get("n_steps", 4)))
        warnings.extend(walk.warnings)
        S1 = path.spectral(1.0)
        gap = float(S1.values[1] - S1.values[0])
        if gap < _tol(config, "degeneracy_gap", 1e-8):
            raise ValueError(f"perturbed ground state is degenerate (gap {gap:.3e})")
        psi = S1.vectors[:, 0]
        K = (k,)

    consts = _constants(model.family, decay, g=gap)
    sites = [x for x in G.sites() if x not in K]
    single = {x: _expectation(psi, sigma, (x,), G.site_dims) for x in sites}
    pair_mat = np.kron(sigma, sigma)
    pairs = [(x, y) for x in sites for y in sites if x < y]

    def corr(xy):
        x, y = xy
        return abs(_expectation(psi, pair_mat, (x, y), G.site_dims) - single[x] * single[y])

    vals = pmap(corr, pairs, workers)
    r2_min = _tol(config, "r_squared_min", 0.9)

    if mode == "bulk":
        by_d = {}
        rows = []
        for (x, y), c in zip(pairs, vals):
            d = int(G.distance(x, y))
            rows.append((x, y, d, float(c)))
            by_d.setdefault(d, []).append(c)
        header = ["x", "y", "d", "correlation"]
        rec = DecayRecord.measure(
            sorted((d, max(cs)) for d, cs in by_d.items()), constants=consts
        )
        records["clustering"] = rec
        checks.append(
            _check(
                "fit-quality",
                rec.r_squared is not None and rec.r_squared >= r2_min,
                f"R^2 = {rec.r_squared}, mu_hat = {rec.mu_hat}",
            )
        )
        checks.append(
            _check(
                "decay-rate-positive",
                rec.mu_hat is not None and rec.mu_hat > 0,
                f"mu_hat = {rec.mu_hat}",
            )
        )
    else:
        by_dk, straddle = {}, {}
        rows = []
        for (x, y), c in zip(pairs, vals):
            d = int(G.distance(x, y))
            dk = int(lattice.effective_distance(G, (x,), (y,), K))
            rows.append((x, y, d, dk, float(c)))
            by_dk.setdefault(dk, []).append(c)
            if G.distance(x, k) + G.distance(k, y) == d:
                straddle.setdefault(d, []).append(c)
        header = ["x", "y", "d", "d_K", "correlation"]
        rec = DecayRecord.measure(
            sorted((d, max(cs)) for d, cs in by_dk.items()), constants=consts
        )
        rec_raw = DecayRecord.measure(
            sorted((d, max(cs)) for d, cs in straddle.items()), constants=consts
        )
        records["clustering_dK"] = rec
        records["clustering_straddling_raw"] = rec_raw
        checks.append(
            _check(
                "fit-quality",
                rec.r_squared is not None and rec.r_squared >= r2_min,
                f"d_K fit R^2 = {rec.r_squared}, mu_hat = {rec.mu_hat}",
            )
        )
        if rec.mu_hat is not None and rec_raw.mu_hat is not None:
            checks.append(
                _check(
                    "impurity-organized-rate",
                    rec.mu_hat >= rec_raw.mu_hat - _tol(config, "rate_margin", 0.05),
                    f"d_K rate {rec.mu_hat:.4f} vs straddling raw {rec_raw.mu_hat:.4f}",
                )
            )
        else:
            warnings.append("straddling-pair fit unavailable; rate comparison skipped")
        checks.append(
            _check(
                "coefficient-one-norms",
                walk.c_norm_max <= walk.c_bound + 1e-12,
                f"max ||c_i||_1 = {walk.c_norm_max:.4f} vs 2 sqrt(D) = {walk.c_bound:.4f} "
                f"over {walk.n} steps",
            )
        )
        consts = dict(consts, n_steps_final=walk.n, gap_certified=walk.gap_certified)

    return {
        "experiment": "clustering",
        "tables": [{"name": "clustering", "header": header, "rows": rows}],
        "records": records,
        "constants": consts,
        "checks": checks,
        "warnings": warnings,
    }


# -------------------------------------------------- sequential coupling


def run_sequential_coupling(config, workers=1, rng=None):
    mcfg = config.get("model", {})
    L = int(mcfg.get("L", 16))
    gamma = float(mcfg.get("gamma", 1.0))
    icfg = config.get("impurity", {})
    anchors = icfg.get("sites", [0, L // 2])
    x0, y0 = int(anchors[0]), int(anchors[1])
    theta = float(icfg.get("strength", 0.5))
    fcfg = config.get("flow", {})
    ds = float(fcfg.get("ds", 0.02))
    n_max = int(fcfg.get("n_max", 2))
    ls = [float(v) for v in fcfg.get("l_values", [1, 2, 3])]
    ring = lattice.chain(L, periodic=True)
    ns = list(range(n_max + 1))

    def systems(strength):
        mk = lambda cx, cy: sflow.BosonSystem(
            ring, gamma,
            (sflow.ImpurityModes(x0, 1, cx), sflow.ImpurityModes(y0, 1, cy)),
        )
        return mk(strength, strength), mk(strength, 0.0), mk(0.0, strength)

    sys_xy, sys_x, sys_y = systems(theta)
    blocks = [sys_xy.block(n) for n in ns]
    mode_x, mode_y = L, L + 1

    def occ(block, mode):
        return np.array([mode in cfg for cfg in block.configs], dtype=float)

    A = [occ(b, mode_x) for b in blocks]
    B = [occ(b, mode_y) for b in blocks]
    AB = [a * b for a, b in zip(A, B)]
    D = sum(math.comb(sys_xy.capacity, n) for n in ns)

    def diag_projector(C):
        """diag(C C^T): the diagonal of the projector onto C's columns."""
        return (C * C).sum(axis=1)

    def omega(diags, occs):
        """tr(P X) / D per block, from diag(P) and the 0/1 occupations."""
        return sum(float(p @ x) for p, x in zip(diags, occs)) / D

    def chain_steps(sxy, sx, sy, radii):
        """The four approximation steps at each truncation radius.

        One flow pass per (system, block) serves every radius; these
        passes are independent, so they are what the workers split.
        Only the coupled passes' flow errors are read, so the
        one-impurity passes track none.  Each pass also gives B(0) and
        diag P(1), read while the path still caches s = 0 and s = 1.
        """
        jobs = [
            (system, n, K, track)
            for n in ns
            for system, K, track in (
                (sxy, (x0, y0), None), (sx, (x0,), ()), (sy, (y0,), ())
            )
        ]

        def flows(job):
            system, n, K, track = job
            path = sflow.BlockSectorPath(system, n)
            B0 = sflow.sector_basis(path, 0.0)
            out = sflow.integrate_flows(path, radii, ds, K=K, track=track)
            return B0, diag_projector(sflow.sector_basis(path, 1.0)), out

        done = pmap(flows, jobs, workers)
        B0 = [b for b, _, _ in done[0::3]]
        P1 = [p for _, p, _ in done[0::3]]
        flows_xy, flows_x, flows_y = ([f for _, _, f in done[k::3]] for k in range(3))
        return [
            one_radius(l, B0, P1, [f[i] for f in flows_xy],
                       [f[i][0] @ g[i][0] for f, g in zip(flows_x, flows_y)])
            for i, l in enumerate(radii)
        ]

    def one_radius(l, B0, P1, flows_xy, U_f):
        """The four steps at radius l, from the flows of the coupled
        system (U_xy) and the product of the one-impurity flows (U_f).
        P1, PU and PF are the diagonals of P(1), U_xy P(0) U_xy^T and
        U_f P(0) U_f^T, which is all the occupations read."""
        U_xy = [U for U, _, _ in flows_xy]
        flow_errs = [float(np.max(errs)) for _, _, errs in flows_xy]
        PU = [diag_projector(U @ b) for U, b in zip(U_xy, B0)]
        PF = [diag_projector(U @ b) for U, b in zip(U_f, B0)]
        w_ab, wu_ab, wf_ab = omega(P1, AB), omega(PU, AB), omega(PF, AB)
        wf_a, wf_b = omega(PF, A), omega(PF, B)
        w_a, w_b = omega(P1, A), omega(P1, B)
        s1 = abs(w_ab - wu_ab)
        s2 = abs(wu_ab - wf_ab)
        s3 = abs(wf_ab - wf_a * wf_b)
        s4 = abs(wf_a * wf_b - w_a * w_b)
        total = abs(w_ab - w_a * w_b)
        fact = max(
            operator_norm(uxy - uf) for uxy, uf in zip(U_xy, U_f)
        )
        return (l, s1, s2, s3, s4, total, s1 + s2 + s3 + s4, max(flow_errs), fact)

    checks, warnings = [], []
    try:
        rows = chain_steps(sys_xy, sys_x, sys_y, ls)
    except GapClosed as exc:
        return {
            "experiment": "sequential-coupling",
            "tables": [{"name": "sequential-coupling", "header": ["l"], "rows": []}],
            "records": {},
            "constants": {"gamma": gamma, "theta": theta, "ds": ds},
            "checks": [_check("gap-open", False, str(exc))],
            "warnings": [],
        }

    floor = _tol(config, "check_floor", 1e-10)
    rec_flow = DecayRecord.measure([(r[0], r[7]) for r in rows])
    rec_fact = DecayRecord.measure([(r[0], r[8]) for r in rows])
    checks.append(
        _check(
            "triangle-inequality",
            all(r[5] <= r[6] + 1e-12 for r in rows),
            "total factorization deviation bounded by the step sum at every l",
        )
    )
    checks.append(
        _check(
            "flow-error-decay",
            _monotone([r[7] for r in rows], floor),
            f"flow errors {', '.join(f'{r[7]:.3e}' for r in rows)}",
        )
    )
    # the defect ||U_xy - U_x U_y|| tracks the impurity separation, not l;
    # it is reported but only the l-dependent quantities carry decay checks

    if config.get("control", True):
        c_xy, c_x, c_y = systems(0.0)
        r0 = chain_steps(c_xy, c_x, c_y, ls[:1])[0]
        resid = max(r0[1], r0[2], r0[3], r0[4], r0[5])
        checks.append(
            _check(
                "uncoupled-control",
                resid <= _tol(config, "control_residual", 1e-10),
                f"largest step deviation {resid:.3e} with both couplings off",
            )
        )

    header = [
        "l", "step_flow", "step_factorize", "step_cluster", "step_expect",
        "total", "step_sum", "flow_error", "factorization_defect",
    ]
    return {
        "experiment": "sequential-coupling",
        "tables": [{"name": "sequential-coupling", "header": header, "rows": rows}],
        "records": {"flow_error": rec_flow, "factorization_defect": rec_fact},
        "constants": {"gamma": gamma, "theta": theta, "ds": ds, "D": D,
                      "anchors": [x0, y0]},
        "checks": checks,
        "warnings": warnings,
    }


# ------------------------------------------------------------------ tqo


def run_tqo(config, workers=1, rng=None):
    if rng is None:
        rng = np.random.default_rng(0)
    model, geom = models.build_toric_code(int(config.get("model", {}).get("L", 2)))
    G = model.graph
    nq = G.n_sites
    warnings = []

    vals, gsB, degeneracy, gap = models.ground_sector_data(model, k=8)
    checks = [
        _check(
            "ground-degeneracy",
            degeneracy == 4,
            f"degeneracy {degeneracy}, gap above the ground space {gap:.4f}",
        )
    ]
    Lstar = int(config.get("probes", {}).get("window", geom.default_Lstar))

    # probe family: single-qubit Paulis, in-window pairs, optional random
    probes = []
    for q in range(nq):
        for pk in "xyz":
            probes.append((f"{pk}{q}", LocalOperator((q,), (2,), PAULI[pk])))
    # two-site probes pair adjacent qubits (edges sharing a vertex); at
    # L=2 a window can hold opposite plaquette sides, which wrap into a
    # noncontractible loop, so parallel non-adjacent pairs stay out
    two = config.get("probes", {}).get("two_site", "all")
    pair_cands = []
    for q1, q2 in sorted(G.edges):
        if geom.in_square((q1, q2), Lstar):
            for pk1, pk2 in (("x", "x"), ("z", "z"), ("z", "x")):
                pair_cands.append(
                    (
                        f"{pk1}{q1}.{pk2}{q2}",
                        LocalOperator(
                            (q1, q2), (2, 2), np.kron(PAULI[pk1], PAULI[pk2])
                        ),
                    )
                )
    if two == "all":
        probes.extend(pair_cands)
    elif int(two) > 0 and pair_cands:
        idx = rng.choice(len(pair_cands), size=min(int(two), len(pair_cands)), replace=False)
        probes.extend(pair_cands[i] for i in sorted(idx))
    n_rand = int(config.get("probes", {}).get("random", 0))
    for j in range(n_rand):
        q = int(rng.integers(nq))
        c = rng.normal(size=3)
        M = (c[0] * sigma_x + c[1] * sigma_y + c[2] * sigma_z) / np.linalg.norm(c)
        probes.append((f"rand{j}.q{q}", LocalOperator((q,), (2,), M)))

    def bulk_one(item):
        label, op = item
        try:
            z, dev = models.tqo_check(gsB, op, Lstar, geom)
            return (label, float(complex(z).real), float(dev))
        except NotApplicable as exc:
            return (label, None, str(exc))

    bulk = pmap(bulk_one, probes, workers)
    bulk_rows = [(lab, z, dev) for lab, z, dev in bulk if z is not None]
    z_of = {lab: z for lab, z, _ in bulk_rows}
    skipped = [lab for lab, z, _ in bulk if z is None]
    if skipped:
        warnings.append(f"{len(skipped)} probes outside every side-{Lstar} window: "
                        + ", ".join(skipped[:6]))
    dev_max = max(dev for _, _, dev in bulk_rows)
    bulk_tol = _tol(config, "bulk_deviation", 1e-10)
    checks.append(
        _check(
            "bulk-probe-deviation",
            dev_max <= bulk_tol,
            f"max deviation {dev_max:.3e} over {len(bulk_rows)} applicable probes",
        )
    )

    # impurity sweep on the exact dressed sector
    icfg = config.get("impurity", {})
    k = int(icfg.get("site", 0))
    dI, W = _impurity_slope(icfg, G.site_dims[k])
    mu = float(config.get("mu", 1.0))
    path = models.attach_impurity(model, k, dI, W, mu=mu, bulk_degeneracy=degeneracy)
    B1 = path.sector(1.0).basis
    G2 = path.graph

    ortho = float(np.abs(B1.conj().T @ B1 - np.eye(B1.shape[1])).max())
    checks.append(
        _check(
            "dressed-orthonormality",
            ortho <= 1e-10,
            f"max |<psi_i, psi_j> - delta_ij| = {ortho:.3e}",
        )
    )

    ls = [float(v) for v in config.get("sweep", {}).get("l_values", [0, 1])]
    sweep_rows, pts = [], []
    for l in ls:
        Kl = lattice.fatten(G, {k}, int(l))
        devs, used = [], 0
        for q in range(nq):
            if q in Kl:
                continue
            if not geom.in_square((q,), Lstar):
                continue
            for pk in "xyz":
                zq = z_of.get(f"{pk}{q}")
                if zq is None:
                    continue
                devs.append(_sector_deviation(B1, PAULI[pk], q, G2.site_dims, zq))
                used += 1
        if not devs:
            warnings.append(f"no applicable probes outside the {int(l)}-fattening")
            continue
        pts.append((l, max(devs)))
        sweep_rows.append((l, max(devs), used))

    record = DecayRecord.measure(pts, constants={"mu": mu, "gap": gap})
    floor = _tol(config, "check_floor", 1e-12)
    checks.append(
        _check(
            "impurity-deviation-decay",
            len(pts) >= 2 and _monotone([e for _, e in pts], floor),
            f"deviations {', '.join(f'{e:.3e}' for _, e in pts)}",
        )
    )

    return {
        "experiment": "tqo",
        "tables": [
            {
                "name": "tqo",
                "header": ["l", "deviation", "n_probes"],
                "rows": sweep_rows,
            },
            {
                "name": "bulk-probes",
                "header": ["probe", "z", "deviation"],
                "rows": bulk_rows,
            },
        ],
        "records": {"dressed_deviation": record},
        "constants": {"mu": mu, "gap": gap, "degeneracy": degeneracy, "Lstar": Lstar},
        "checks": checks,
        "warnings": warnings,
    }


# ------------------------------------------------------------- kato-flow


def run_kato_flow(config, workers=1, rng=None):
    mcfg = config.get("model", {})
    L = int(mcfg.get("L", 10))
    gamma = float(mcfg.get("gamma", 1.0))
    icfg = config.get("impurity", {})
    site = int(icfg.get("site", 2))
    n_spins = int(icfg.get("n_spins", 1))
    theta = float(icfg.get("strength", 0.5))
    fcfg = config.get("flow", {})
    ds = float(fcfg.get("ds", 0.01))
    n_max = int(fcfg.get("n_max", 2))
    ls = [float(v) for v in fcfg.get("l_values", [1, 2, 3, 4])]

    ring = lattice.chain(L, periodic=True)
    system = sflow.BosonSystem(
        ring, gamma, (sflow.ImpurityModes(site, n_spins, theta),)
    )
    ns = list(range(n_max + 1))
    checks, warnings, rows = [], [], []

    # one flow pass per block serves the untruncated flow and every
    # radius; the truncated errors are read at s = 1 only
    def block_errors(n):
        path = sflow.BlockSectorPath(system, n)
        flows = sflow.integrate_flows(path, [None, *ls], ds, K=(site,), track=(None,))
        return [errs for _, _, errs in flows]

    errors = pmap(block_errors, ns, workers)
    unt = {}
    for n, errs in zip(ns, errors):
        unt[n] = float(np.max(errs[0]))
        rows.append((math.inf, n, unt[n]))
    flow_tol = _tol(config, "flow_error", 1e-6)
    checks.append(
        _check(
            "untruncated-flow",
            max(unt.values()) <= flow_tol,
            f"max error {max(unt.values()):.3e} at ds = {ds:g}",
        )
    )
    trivial = [n for n in ns
               if math.comb(system.capacity, n) in (0, math.comb(system.n_modes, n))]
    checks.append(
        _check(
            "trivial-sectors-exact",
            all(unt[n] == 0.0 for n in trivial),
            f"blocks {trivial} carry empty or full sectors; errors "
            + ", ".join(f"{unt[n]:.1e}" for n in trivial),
        )
    )

    probe_n = next((n for n in ns if n not in trivial), None)
    if probe_n is not None and unt[probe_n] > 0:
        _, _, e2 = sflow.integrate_flow(
            sflow.BlockSectorPath(system, probe_n), None, 2 * ds
        )
        ratio = float(np.max(e2)) / unt[probe_n]
        checks.append(
            _check(
                "step-halving-order",
                3.0 <= ratio <= 5.0,
                f"error ratio {ratio:.2f} between ds = {2 * ds:g} and {ds:g}",
            )
        )
    else:
        warnings.append("no nontrivial block with finite error; halving check skipped")

    pts = []
    for i, l in enumerate(ls, start=1):
        per_block = [float(errs[i][-1]) for errs in errors]
        for n, e in zip(ns, per_block):
            rows.append((l, n, e))
        pts.append((l, max(per_block)))

    record = DecayRecord.measure(pts, constants={"gamma": gamma, "theta": theta, "ds": ds})
    checks.extend(_fit_checks(config, record))

    # resolvent decay per particle block
    ctcfg = config.get("ct", {})
    zs = [float(z) for z in ctcfg.get("z_values", [-0.5])]
    s_ct = float(ctcfg.get("s", 0.0))
    x0_site = int(ctcfg.get("x0", (site + L // 2) % L))
    d_fit = int(ctcfg.get("max_fit_distance", max(2, L // 2 - 1)))
    ct_rows, ct_checks = [], []
    for n in ns:
        if n < 1:
            continue
        block = system.block(n)
        if block.dim < 2:
            continue
        x0 = tuple(sorted((x0_site + j) % L for j in range(n)))
        for z in zs:
            prof = sflow.combes_thomas_profile(block, z, x0, s=s_ct)
            for dd, vv in prof:
                ct_rows.append((n, z, int(dd), float(vv)))
            rate = sflow.profile_rate(prof, d_max=d_fit)
            if n == 1 and rate is not None:
                ct_checks.append(_ct_rate_check(config, gamma, z, rate))
    checks.extend(ct_checks)

    return {
        "experiment": "kato-flow",
        "tables": [
            {"name": "kato-flow", "header": ["l", "n", "error"], "rows": rows},
            {"name": "resolvent", "header": ["n", "z", "distance", "value"],
             "rows": ct_rows},
        ],
        "records": {"flow_error": record},
        "constants": {"gamma": gamma, "theta": theta, "ds": ds,
                      "capacity": system.capacity},
        "checks": checks,
        "warnings": warnings,
    }


def _ct_rate_check(config, u, z, rate):
    """The fitted one-particle resolvent decay rate against the analytic
    Combes-Thomas rate acosh((u + 2 - z) / 2) of a ring with constant
    potential u."""
    eta = math.acosh((u + 2.0 - z) / 2.0)
    rel = abs(rate - eta) / eta
    return _check(
        f"ct-rate-z{z:g}",
        rel <= _tol(config, "ct_rel_error", 0.1),
        f"measured {rate:.4f} vs analytic {eta:.4f} ({rel:.1%} off)",
    )


# ------------------------------------------------------------ ct-profile


def run_ct_profile(config, workers=1, rng=None):
    mcfg = config.get("model", {})
    L = int(mcfg.get("L", 20))
    gamma = float(mcfg.get("gamma", 1.0))
    u = mcfg.get("u", gamma)
    ring = lattice.chain(L, periodic=True)

    impurities = ()
    icfg = config.get("impurity")
    if icfg:
        strength = float(icfg.get("strength", 0.5))
        impurities = (
            sflow.ImpurityModes(
                int(icfg.get("site", 0)), int(icfg.get("n_spins", 1)), strength
            ),
        )
    system = sflow.BosonSystem(ring, u, impurities)

    ctcfg = config.get("ct", {})
    n_particles = int(ctcfg.get("n_particles", 1))
    zs = [float(z) for z in ctcfg.get("z_values", [-0.5, -1.0, -2.0])]
    s_ct = float(ctcfg.get("s", 0.0))
    x0_site = int(ctcfg.get("x0", 0))
    d_fit = int(ctcfg.get("max_fit_distance", max(2, L // 2 - 1)))
    block = system.block(n_particles)
    x0 = tuple(sorted((x0_site + j) % L for j in range(n_particles)))

    profiles = pmap(
        lambda z: sflow.combes_thomas_profile(block, z, x0, s=s_ct), zs, workers
    )
    rows, rates, dists = [], [], []
    spec = np.linalg.eigvalsh(block.matrix(s_ct))
    for z, prof in zip(zs, profiles):
        for dd, vv in prof:
            rows.append((z, int(dd), float(vv)))
        rates.append(sflow.profile_rate(prof, d_max=d_fit))
        dists.append(float(np.abs(spec - z).min()))

    checks, warnings = [], []
    order = sorted(range(len(zs)), key=lambda i: dists[i])
    usable = [(dists[i], rates[i]) for i in order if rates[i] is not None]
    if len(usable) >= 2:
        checks.append(
            _check(
                "rate-monotone-in-distance",
                all(b[1] >= a[1] - 1e-9 for a, b in zip(usable, usable[1:])),
                "; ".join(f"dist {d:.3f}: rate {r:.4f}" for d, r in usable),
            )
        )
    else:
        warnings.append("fewer than two fitted rates; monotonicity not checked")

    if np.isscalar(u) and n_particles == 1 and not impurities:
        checks.extend(
            _ct_rate_check(config, float(u), z, rate)
            for z, rate in zip(zs, rates)
            if rate is not None
        )

    return {
        "experiment": "ct-profile",
        "tables": [
            {"name": "ct-profile", "header": ["z", "distance", "value"], "rows": rows}
        ],
        "records": {},
        "constants": {"gamma": gamma, "n_particles": n_particles,
                      "spectrum_min": float(spec[0])},
        "checks": checks,
        "warnings": warnings,
    }


RUNNERS = {
    "lr-cone": run_lr_cone,
    "weak-step": run_weak_step,
    "transport": run_transport,
    "impurity-lppl": run_impurity_lppl,
    "clustering": run_clustering,
    "sequential-coupling": run_sequential_coupling,
    "tqo": run_tqo,
    "kato-flow": run_kato_flow,
    "ct-profile": run_ct_profile,
}

"""Exact grand-canonical expectations on a capped occupation space.

The Hamiltonian is diagonal in the occupation basis of the wall-mode
spectrum,

    H = sum_k eps_k N_k + (lam/2) * Ntil^2 / L,     Ntil = sum_{k>=2} N_k,

so a grand-canonical expectation is a ratio of weighted sums over
occupation configurations with per-configuration weight

    exp(-beta * (sum_k eps_k n_k + (lam/2) ntil^2 / L - mu * sum_k n_k)).

The two wall modes (k = 0, 1) do not enter the coupling term and
factorize as independent geometric series.  Modes k >= 2 couple only
through ntil, so their sector reduces to the constrained sums

    z[ntil] = sum over {n_k, k >= 2 : sum n_k = ntil} exp(-beta sum eps_k n_k),

built by convolving per-mode geometric weight vectors; the coupling and
the chemical potential then act as a 1-D reweighting in ntil.  That turns
every diagonal observable into a short exact sum instead of one over
prod(caps) configurations.

Cost, with n = 1 + sum_{k>=2} caps_k the DP length: a plain mode's
weight vector is geometric, so convolving it is a doubling window sum of
about 2 log2(cap_k + 1) length-n `logaddexp` calls, and one pass over
the K modes costs O(n sum_k log(cap_k + 1)) with no (cap x n) stack.
Only a mode that carries a polynomial factor of the observable (one or
two per observable) is convolved densely, at O(cap_k n).  The pass runs
from k_top down to 2 and keeps the partial sums over modes k..k_top at
every r-th k; r is the smallest spacing whose stored vectors total at
most 2n entries (`_SUFFIX_MEMORY`).  An expectation with factors in
modes <= k_f restarts from the nearest stored suffix above k_f, so it
convolves at most k_f + r - 2 modes (r when k_f < 2 + r) instead of K.

Occupations are capped per mode; `_moment_tails` gives every mode's
neglected tail at its cap (at the given beta, mu; the repulsive ntil
coupling only suppresses further).  `make_truncation` grows all caps as
one array until each tail is below tol/(k_top + 1) and hands them to
`TruncationSpec(table, model, caps)`, which checks them (the model's box
is the table's, mu <= eps(0), the DP length) and computes their tails and
the sum `tail_budget`, which certifies the truncation, itself: no tail
can be passed in.  Every function past it reads the model from the spec,
so an expectation or a check runs only at the (beta, mu) its certificate
covers, and a precomputed `ConstrainedZ` carries the spec it was built
for.  All sums run in log space.

Observables are products of univariate polynomial factors in distinct
mode numbers, optionally times a polynomial in Ntil (the coupling makes
Ntil a function of the DP index, so it costs nothing extra).

The four equilibrium checks (the exchange identity, the wall-mode
occupation law, the occupation-moment inequality and the occupation
bound) each return their two sides (lhs, rhs) and reject powers beyond
the degree `_ENVELOPE_DEGREE` the tails certify.  `_CHECKS` maps each
name to its sides function and the relation (==, >=, <=) it tests;
`run_check` calls it with the spec and the check's own keyword arguments,
echoes them and decides pass within the relevant tail budget.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, ValidationError
from .spectrum import BoxParams, SpectrumTable

_MAX_DP_LEN = 2_000_000
_MAX_MODE_CAP = 5_000_000  # wall-mode sums materialize arange(cap + 1)
_ENVELOPE_DEGREE = 3  # the per-mode polynomial degree TruncationSpec's tails cover
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))  # e^c overflows a float beyond it


class CapOverflow(ValidationError):
    """Total occupation-cap budget exceeds the configured maximum."""


class UnknownMode(ValidationError):
    """Observable references a mode outside the truncation."""


class IndexClash(ValidationError):
    """Exchange-identity mode indices must be distinct."""


class BadMode(ValidationError):
    """Check applied to a mode outside its validity class."""


class NonpositiveGap(ValidationError):
    """Occupation-bound exponent c_k <= 0; the bound is vacuous."""


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature, chemical potential, and coupling for one box.

    lam = 0 is permitted as the free reference gas.  mu < eps(0) is
    required by every operation that sums the wall-mode series; it is
    validated against the actual spectrum at call time, not here.
    """

    box: BoxParams
    beta: float
    mu: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValidationError(f"beta must be finite and > 0, got {self.beta}")
        if not math.isfinite(self.mu):
            raise ValidationError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValidationError(f"lam must be finite and >= 0, got {self.lam}")


def number_poly(power: int) -> tuple[float, ...]:
    """Coefficients (low -> high) of N^power."""
    if power < 0:
        raise ValidationError("power must be >= 0")
    return tuple([0.0] * power + [1.0])


def shifted_number_poly(power: int) -> tuple[float, ...]:
    """Coefficients (low -> high) of (N + 1)^power."""
    if power < 0:
        raise ValidationError("power must be >= 0")
    return tuple(float(math.comb(power, i)) for i in range(power + 1))


@dataclass(frozen=True)
class DiagonalObservable:
    """Product of univariate polynomial factors in distinct mode numbers,
    optionally times a polynomial in Ntil = sum_{k>=2} N_k.

    Factors must be nonnegative on the admissible occupation range (all
    built-in factors N^n and (N+1)^n are); negative values are rejected
    at evaluation time so the log-space sums stay sign-free.
    """

    factors: tuple[tuple[int, tuple[float, ...]], ...] = ()
    ntilde_poly: tuple[float, ...] | None = None

    def __post_init__(self):
        seen = set()
        for k, poly in self.factors:
            if k < 0:
                raise ValidationError(f"mode index must be >= 0, got {k}")
            if k in seen:
                raise ValidationError(f"mode {k} appears in more than one factor")
            seen.add(k)
            if len(poly) == 0 or not all(math.isfinite(c) for c in poly):
                raise ValidationError("factor coefficients must be finite and nonempty")
        if self.ntilde_poly is not None and (
            len(self.ntilde_poly) == 0
            or not all(math.isfinite(c) for c in self.ntilde_poly)
        ):
            raise ValidationError("ntilde_poly coefficients must be finite and nonempty")

    @classmethod
    def mode_number(cls, k: int, power: int = 1) -> "DiagonalObservable":
        return cls(factors=((k, number_poly(power)),))


@dataclass(frozen=True)
class TruncationSpec:
    """Spectrum prefix, the model, per-mode occupation caps, and the
    certified tail the spec computes from them.  The table and the model
    must describe the same box, with mu <= eps(0) (at mu = eps(0) the
    wall-mode tails are inf but cancel out of k >= 2 sector ratios), and
    the k >= 2 caps may total at most _MAX_DP_LEN - 1 (CapOverflow).

    `per_mode_tail[k]` bounds the effect of capping mode k at M = caps[k]
    on any reported expectation: the neglected geometric weight inflated
    by a moment envelope of degree d = _ENVELOPE_DEGREE = 3,

        t_k = d! (M + 2)^d x^(M+1) / (1 - x)^d,   x = e^{-beta (eps_k - mu)},

    using sum_{n > M} (n+1)^d x^n <= d! (M+2)^d x^(M+1)/(1-x)^(d+1) on the
    normalized weights (1 - x) x^n.  d is the highest per-mode polynomial
    degree the built-in checks report (`exchange_identity_sides` and
    `check_moment_log_inequality` reject higher powers).
    `tail_budget` is the sum over modes.  Hand-built observables of
    per-mode degree > 3 can exceed the envelope.  Expectations that
    provably do not involve a mode (wall modes cancel out of k >= 2
    sector ratios and vice versa) may use `relevant_budget` instead of
    the global sum.
    """

    table: SpectrumTable
    model: ModelParams
    caps: tuple[int, ...]
    per_mode_tail: tuple[float, ...] = field(init=False)
    tail_budget: float = field(init=False)

    def __post_init__(self):
        eps = self.table.epsilons
        if self.table.params != self.model.box:
            raise ValidationError("truncation table and model box must match")
        if self.model.mu > eps[0]:
            raise ValidationError(f"mu must satisfy mu <= eps(0) = {eps[0]}, got {self.model.mu}")
        if len(self.caps) != len(eps):
            raise ValidationError("need exactly one cap per tabulated mode")
        if len(self.caps) < 2:
            raise ValidationError("truncation must include both wall modes (k = 0, 1)")
        if not isinstance(self.caps, tuple) or any(
                (not isinstance(c, int)) or c < 1 for c in self.caps):
            raise ValidationError("caps must be a tuple of integers >= 1")
        if sum(self.caps[2:]) + 1 > _MAX_DP_LEN:
            raise CapOverflow(
                f"k>=2 cap total {sum(self.caps[2:])} exceeds max DP length {_MAX_DP_LEN}")
        tails = tuple(_moment_tails(_log_ratios(eps, self.model), self.caps).tolist())
        object.__setattr__(self, "per_mode_tail", tails)
        object.__setattr__(self, "tail_budget", math.fsum(tails))

    @property
    def k_top(self) -> int:
        return len(self.caps) - 1

    def relevant_budget(self, involved_modes) -> float:
        """Tail budget for a check touching `involved_modes`: tails of the
        involved wall modes plus, if any mode k >= 2 is involved, the whole
        k >= 2 sector (its normalization couples all excited caps)."""
        budget = sum(self.per_mode_tail[k] for k in involved_modes if k < 2)
        if any(k >= 2 for k in involved_modes):
            budget += sum(self.per_mode_tail[2:])
        return budget


def _log_ratios(eps: np.ndarray, model: ModelParams) -> np.ndarray:
    """log x_k = -beta (eps_k - mu) of every mode's geometric weight; a value
    that overflows a float is a ValidationError."""
    with np.errstate(over="ignore"):
        logx = -model.beta * (eps - model.mu)
    if np.isinf(logx).any():
        raise ValidationError(
            f"beta (eps_k - mu) overflows a float (beta = {model.beta:g}, mu = {model.mu:g})")
    return logx


def _moment_tails(logx: np.ndarray, caps) -> np.ndarray:
    """`TruncationSpec.per_mode_tail` for geometric ratios x = e^logx and
    caps M, one entry per mode; inf where x >= 1."""
    d = _ENVELOPE_DEGREE
    m = np.asarray(caps, dtype=float)
    with np.errstate(divide="ignore"):  # x = 1 gives inf, replaced below either way
        tails = math.factorial(d) * (m + 2.0) ** d * np.exp((m + 1.0) * logx) / (
            -np.expm1(logx)) ** d
    return np.where(logx < 0.0, tails, np.inf)


def make_truncation(table: SpectrumTable, model: ModelParams, tol: float = 1e-12) -> TruncationSpec:
    """Choose per-mode caps so every per-mode tail is <= tol/(k_top + 1) and
    certify them as a `TruncationSpec`.

    Each cap M starts at its weight-only estimate x^(M+1) <= target and,
    all modes as one array, grows by 1 + M // 8 while its tail exceeds the
    target.  The estimate needs every ratio x < 1, so mu < eps(0); a cap
    above _MAX_MODE_CAP raises CapOverflow.
    """
    eps = table.epsilons
    if model.mu >= eps[0]:
        raise ValidationError(f"mu must satisfy mu < eps(0) = {eps[0]}, got {model.mu}")
    if not (0.0 < tol < 1.0):
        raise ValidationError("tol must be in (0, 1)")
    target = tol / len(eps)
    logx = _log_ratios(eps, model)
    with np.errstate(divide="ignore", invalid="ignore"):
        need = (math.log(target) + np.log(-np.expm1(logx))) / logx - 1.0
    caps = np.maximum(1.0, np.ceil(need - 1e-9))
    while (fits := caps <= _MAX_MODE_CAP).all():
        grow = _moment_tails(logx, caps) > target
        if not grow.any():
            break
        caps[grow] += 1 + caps[grow] // 8
    else:
        k = int(np.argmin(fits))
        raise CapOverflow(
            f"mode {k} needs a cap above {_MAX_MODE_CAP} to certify tol {tol:.1e}: beta "
            f"(eps_k - mu) = {-logx[k]:.3g} too small (beta = {model.beta:g}, mu = {model.mu:g})")
    spec = TruncationSpec(table, model, tuple(int(c) for c in caps))
    if spec.tail_budget > tol:
        raise NumericalFailure("computed tail budget exceeds the requested tolerance")
    return spec


# ----------------------------------------------------------------------
# constrained partition sums
# ----------------------------------------------------------------------

# Stored suffix vectors of one ConstrainedZ may total at most this many
# times len(log_z) entries; the suffix spacing is the smallest that fits.
_SUFFIX_MEMORY = 2


@dataclass(frozen=True, eq=False)
class ConstrainedZ:
    """log z[ntil] for the k >= 2 sector of `spec` (no mu, no coupling:
    pure exp(-beta sum eps_k n_k) summed at fixed ntil).  z[0] = 1.

    `suffixes[k]` is the same sum over modes k..k_top only, kept at
    k = 2 + r, 2 + 2r, ... with r from `_suffix_spacing`, and at k_top + 1
    (the empty product), so an expectation with factors in low modes
    restarts from the nearest one above them instead of from k_top.
    """

    spec: TruncationSpec
    log_z: np.ndarray
    suffixes: dict = field(default_factory=dict)


def _log_conv(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Log-space linear convolution; loops over the shorter operand and
    accumulates in place, so it needs no (len(lb) x n) stack."""
    if len(lb) > len(la):
        la, lb = lb, la
    out = np.full(len(la) + len(lb) - 1, -np.inf)
    for j, lb_j in enumerate(lb):
        seg = out[j : j + len(la)]
        np.logaddexp(seg, lb_j + la, out=seg)
    return out


def _log_geometric_conv(la: np.ndarray, logx: float, cap: int) -> np.ndarray:
    """`la` convolved with the geometric log-vector n * logx, n = 0..cap.

    The window sums G_w[n] = log sum_{j<w} exp(j logx + la[n-j]), of
    length len(la) + w - 1, double as G_2w[n] = logaddexp(G_w[n], w logx
    + G_w[n-w]) and grow by one as G_{w+1}[n] = logaddexp(la[n], logx +
    G_w[n-1]).  Walking the binary digits of cap + 1 from the top reaches
    G_{cap+1} in at most 2 log2(cap + 1) length-n logaddexp calls; every
    term is positive, so nothing cancels.
    """
    m = len(la)
    g, w = la, 1
    for bit in bin(cap + 1)[3:]:
        n = len(g)  # n = m + w - 1 >= w
        moved = w * logx + g
        out = np.empty(n + w)
        out[:w] = g[:w]
        np.logaddexp(g[w:], moved[: n - w], out=out[w:n])
        out[n:] = moved[n - w :]
        g, w = out, 2 * w
        if bit == "1":
            moved = logx + g
            out = np.empty(len(g) + 1)
            out[0] = la[0]
            np.logaddexp(la[1:], moved[: m - 1], out=out[1:m])
            out[m:] = moved[m - 1 :]
            g, w = out, w + 1
    return g


def _poly_on_range(coeffs, n: np.ndarray) -> np.ndarray:
    vals = np.polynomial.polynomial.polyval(n, np.asarray(coeffs, dtype=float))
    vals = np.atleast_1d(vals)
    if np.any(vals < 0.0):
        raise ValidationError("observable factor is negative on the occupation range")
    return vals


def _logsumexp(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """log(sum(b * exp(a))) for weights b >= 0 (all 1 if omitted).

    The shift is the largest `a` among the terms with b > 0, so a term
    that carries no weight cannot set it; -inf when no term counts.
    """
    if b is not None:
        keep = b > 0.0
        a, b = a[keep], b[keep]
    if a.size == 0:
        return -math.inf
    top = float(a.max())
    if top == -math.inf:
        return top
    terms = np.exp(a - top)
    if b is not None:
        terms *= b
    return top + math.log(terms.sum())


def _suffix_spacing(caps) -> int:
    """Smallest r such that the suffixes at k = 2 + r, 2 + 2r, ... <= k_top
    total at most _SUFFIX_MEMORY * len(log_z) entries."""
    lengths = np.cumsum([1] + list(caps[:1:-1]))[::-1]  # len(S_k) at k = 2..k_top+1
    budget = _SUFFIX_MEMORY * lengths[0]
    r = 1
    while lengths[r:-1:r].sum() > budget:
        r += 1
    return r


def _convolve_modes(log_z, spec, modes, factored):
    """Convolve `log_z` with the weight vector of each mode in `modes`:
    geometric unless `factored` gives the mode a polynomial factor."""
    eps = spec.table.epsilons
    for k in modes:
        logx = -spec.model.beta * eps[k]
        if k in factored:
            n = np.arange(spec.caps[k] + 1)
            with np.errstate(divide="ignore"):
                logv = logx * n + np.log(_poly_on_range(factored[k], n))
            log_z = _log_conv(log_z, logv)
        else:
            log_z = _log_geometric_conv(log_z, logx, spec.caps[k])
    return log_z


def constrained_partition(spec: TruncationSpec) -> ConstrainedZ:
    """z[ntil] by convolving the per-mode geometric weight vectors, from
    k_top down to 2, keeping every `_suffix_spacing`-th partial result."""
    r = _suffix_spacing(spec.caps)
    eps = spec.table.epsilons
    log_z = np.zeros(1)
    suffixes = {spec.k_top + 1: log_z}
    for k in range(spec.k_top, 1, -1):
        log_z = _log_geometric_conv(log_z, -spec.model.beta * eps[k], spec.caps[k])
        if k > 2 and (k - 2) % r == 0:
            suffixes[k] = log_z
    return ConstrainedZ(spec=spec, log_z=log_z, suffixes=suffixes)


def _wall_mode_ratio(spec: TruncationSpec, k: int, poly) -> float:
    eps_k = float(spec.table.epsilons[k])
    n = np.arange(spec.caps[k] + 1)
    logw = -spec.model.beta * (eps_k - spec.model.mu) * n
    num = _logsumexp(logw, _poly_on_range(poly, n))
    den = _logsumexp(logw)
    return math.exp(num - den)


def grand_expectation(
    obs: DiagonalObservable,
    spec: TruncationSpec,
    *,
    z: ConstrainedZ | None = None,
) -> float:
    """Exact capped-space expectation of a diagonal observable at the model
    of `spec`.

    Wall-mode factors reduce to independent 1-D geometric sums; k >= 2
    factors enter through a reweighted constrained partition sum, rebuilt
    from the nearest stored suffix of `z` above the highest factored mode.
    A precomputed `z` may be shared across calls on the spec it was built
    for; one built for any other spec is a ValidationError.
    """
    wall = 1.0
    factored = {}
    for k, poly in obs.factors:
        if k > spec.k_top:
            raise UnknownMode(f"mode {k} is outside the truncation (k_top={spec.k_top})")
        if k < 2:
            wall *= _wall_mode_ratio(spec, k, poly)
        else:
            factored[k] = poly
    if z is None:
        z = constrained_partition(spec)
    elif z.spec != spec:
        raise ValidationError("precomputed z was built for another truncation")
    if not factored and obs.ntilde_poly is None:
        return wall  # excited-sector ratio is exactly 1
    ntil = np.arange(len(z.log_z), dtype=float)
    m = spec.model
    logG = m.beta * (m.mu * ntil - 0.5 * m.lam * ntil * ntil / m.box.L)
    log_den = _logsumexp(z.log_z + logG)
    if factored:
        start = min((k for k in z.suffixes if k > max(factored)), default=spec.k_top + 1)
        log_z_mod = z.suffixes.get(start, np.zeros(1))
        log_z_mod = _convolve_modes(log_z_mod, spec, range(start - 1, 1, -1), factored)
    else:
        log_z_mod = z.log_z
    if obs.ntilde_poly is not None:
        log_num = _logsumexp(log_z_mod + logG, _poly_on_range(obs.ntilde_poly, ntil))
    else:
        log_num = _logsumexp(log_z_mod + logG)
    if log_num == -np.inf:
        return 0.0
    return wall * math.exp(log_num - log_den)


# ----------------------------------------------------------------------
# equilibrium-state checks
# ----------------------------------------------------------------------

def _require_mu_below_ground(spec: TruncationSpec):
    eps0, mu = float(spec.table.epsilons[0]), spec.model.mu
    if not mu < eps0:
        raise ValidationError(f"mu must satisfy mu < eps(0) = {eps0}, got {mu}")


def _bose_factor(c: float) -> float:
    """1/(e^c - 1) for c > 0; once e^c overflows, e^-c/(1 - e^-c) = e^-c."""
    return 1.0 / math.expm1(c) if c <= _LOG_FLOAT_MAX else math.exp(-c)


def exchange_identity_sides(j, targets, spec):
    """Both sides of the particle-exchange identity between mode j and the
    first target mode: moving one particle from j to k1 multiplies the
    Gibbs weight by exp(beta (eps_j - eps_k1)) whenever the move leaves
    the coupling term unchanged (j and k1 both wall modes, both k >= 2,
    or lam = 0).  Returns (lhs, rhs) with

        lhs = e^{beta (eps_j - eps_k1)} omega(N_j (N_k1 + 1)^n1 prod_i N_ki^ni),
        rhs = omega((N_j + 1) N_k1^n1 prod_i N_ki^ni).

    For mixed wall/excited pairs at lam > 0 the move shifts Ntil and the
    identity genuinely fails; the sides are still well defined.  Powers
    must be in [0, _ENVELOPE_DEGREE] and the prefactor within float range.
    """
    targets = tuple((int(k), int(n)) for k, n in targets)
    if any(not 0 <= n <= _ENVELOPE_DEGREE for _, n in targets):
        raise ValidationError(
            f"exchange target powers must be in [0, {_ENVELOPE_DEGREE}], the per-mode "
            f"degree the truncation tail certifies; got {[n for _, n in targets]}"
        )
    if len(targets) == 0:
        raise ValidationError("need at least one (mode, power) target")
    ks = [k for k, _ in targets]
    if len(set(ks)) != len(ks):
        raise IndexClash(f"target modes must be pairwise distinct, got {ks}")
    if j in ks:
        raise IndexClash(f"j={j} clashes with target modes {ks}")
    k1, n1 = targets[0]
    if n1 < 1:
        raise ValidationError("the first target power must be >= 1")
    for k in [j] + ks:
        if k < 0 or k > spec.k_top:
            raise UnknownMode(f"mode {k} is outside the truncation")
    _require_mu_below_ground(spec)
    eps = spec.table.epsilons
    log_pref = spec.model.beta * (eps[j] - eps[k1])
    if log_pref > _LOG_FLOAT_MAX:
        raise ValidationError(f"exchange prefactor e^(beta (eps_j - eps_k1)) = "
                              f"e^{log_pref:.6g} overflows a float; lower beta")

    spect = [(k, number_poly(n)) for k, n in targets[1:] if n > 0]
    lhs_obs = DiagonalObservable(
        factors=tuple([(j, number_poly(1)), (k1, shifted_number_poly(n1))] + spect)
    )
    rhs_obs = DiagonalObservable(
        factors=tuple([(j, shifted_number_poly(1)), (k1, number_poly(n1))] + spect)
    )
    z = constrained_partition(spec)
    lhs = math.exp(log_pref) * grand_expectation(lhs_obs, spec, z=z)
    rhs = grand_expectation(rhs_obs, spec, z=z)
    return lhs, rhs


def check_wall_mode_occupation(k, spec):
    """(omega(N_k), 1/(e^{beta (eps_k - mu)} - 1)) for a wall mode k in
    {0, 1}.  The closed form is the untruncated value (the coupling omits
    the wall modes, so it is exact on the full space); the two differ by
    the truncation tail of the geometric series."""
    if k not in (0, 1):
        raise BadMode(f"wall-mode occupation check needs k in {{0, 1}}, got {k}")
    _require_mu_below_ground(spec)
    occ = grand_expectation(DiagonalObservable.mode_number(k), spec)
    return occ, _bose_factor(spec.model.beta * (spec.table.epsilons[k] - spec.model.mu))


def check_moment_log_inequality(k, n, spec):
    """Both sides of the occupation-moment log inequality for k >= 2:

        beta * [ (mu - eps_k + lam/(2L)) omega(N_k^{n+1})
                 - (lam/L) omega(Ntil N_k^{n+1}) ]
            >=  omega(N_k^{n+1}) * ln( omega(N_k^{n+1}) / omega((N_k+1)^{n+1}) ).

    Returns (lhs, rhs); equality holds in the free gas at n arbitrary.  The
    rhs is 0 where omega(N_k^{n+1}) = 0 (x ln x -> 0); n must be in
    [0, _ENVELOPE_DEGREE - 1].
    """
    if not 0 <= n <= _ENVELOPE_DEGREE - 1:
        raise ValidationError(
            f"moment power must be in [0, {_ENVELOPE_DEGREE - 1}] (N_k^(n+1) within the "
            f"per-mode degree the truncation tail certifies); got {n}"
        )
    if k < 2:
        raise BadMode(f"moment inequality needs k >= 2, got {k}")
    if k > spec.k_top:
        raise UnknownMode(f"mode {k} is outside the truncation")
    _require_mu_below_ground(spec)
    eps_k = float(spec.table.epsilons[k])
    model = spec.model
    L = model.box.L
    z = constrained_partition(spec)
    a, b, c = (grand_expectation(obs, spec, z=z) for obs in (
        DiagonalObservable.mode_number(k, n + 1),  # N_k^{n+1}
        DiagonalObservable(factors=((k, shifted_number_poly(n + 1)),)),  # (N_k + 1)^{n+1}
        DiagonalObservable(factors=((k, number_poly(n + 1)),), ntilde_poly=(0.0, 1.0)),
    ))
    lhs = model.beta * ((model.mu - eps_k + 0.5 * model.lam / L) * a - model.lam * c / L)
    rhs = a * math.log(a / b) if a > 0.0 else 0.0
    return lhs, rhs


def occupation_bound_exponent(k, spec) -> float:
    """c_k = beta * (eps_k - eps_0 - lam/(2L)); positive where the
    occupation bound is informative."""
    eps, model = spec.table.epsilons, spec.model
    return model.beta * (eps[k] - eps[0] - 0.5 * model.lam / model.box.L)


def check_occupation_bound(k, spec):
    """(omega(N_k), 1/(e^{c_k} - 1)) for k >= 2 with c_k as above.

    Valid for mu <= eps(0), which the spec guarantees; the bound saturates
    in the free gas at mu = eps(0).  Raises NonpositiveGap when c_k <= 0
    (vacuous bound).
    """
    if k < 2:
        raise BadMode(f"occupation bound needs k >= 2, got {k}")
    if k > spec.k_top:
        raise UnknownMode(f"mode {k} is outside the truncation")
    c = occupation_bound_exponent(k, spec)
    if c <= 0.0:
        raise NonpositiveGap(f"bound exponent c_k = {c} <= 0 for k={k}")
    occ = grand_expectation(DiagonalObservable.mode_number(k), spec)
    return occ, _bose_factor(c)


# ----------------------------------------------------------------------
# JSON check reports
# ----------------------------------------------------------------------

_FLOAT_ATOL_FACTOR = 4e-13  # rounding allowance on top of the tail budget

# name -> (the function giving the check's sides (lhs, rhs), the relation
# lhs (==, >=, <=) rhs up to an allowance a that it tests)
_CHECKS = {
    "exchange": (exchange_identity_sides, lambda lhs, rhs, a: abs(lhs - rhs) <= a),
    "wall-occupation": (check_wall_mode_occupation, lambda lhs, rhs, a: abs(lhs - rhs) <= a),
    "moment-inequality": (check_moment_log_inequality, lambda lhs, rhs, a: lhs >= rhs - a),
    "occupation-bound": (check_occupation_bound, lambda lhs, rhs, a: lhs <= rhs + a),
}
CHECK_NAMES = tuple(_CHECKS)
# name -> the keyword arguments `run_check` takes for that check
CHECK_ARGUMENTS = {name: tuple(inspect.signature(sides).parameters)[:-1]  # all but spec
                   for name, (sides, _) in _CHECKS.items()}


def run_check(name: str, spec: TruncationSpec, **kwargs) -> dict:
    """Run one named check on `spec` with its keyword arguments
    (`CHECK_ARGUMENTS`) and wrap its sides (lhs, rhs) as a JSON-ready
    report with residual = lhs - rhs; `params` echoes the box, the model,
    the truncation and the arguments.

    Pass criteria (allowance = (budget + atol) * max(1, |lhs|, |rhs|),
    budget = tail of the truncation over the modes the arguments name):
      exchange, wall-occupation:  |lhs - rhs| <= allowance
      moment-inequality:          lhs >= rhs - allowance
      occupation-bound:           lhs <= rhs + allowance
    A vacuous occupation bound (c_k <= 0) is reported with its
    `bound_exponent` and lhs, rhs, residual and pass all None.
    """
    if name not in _CHECKS:
        raise ValidationError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    sides_of, relation = _CHECKS[name]
    model = spec.model
    params = {
        "sigma": model.box.sigma,
        "L": model.box.L,
        "beta": model.beta,
        "mu": model.mu,
        "lambda": model.lam,
        "k_top": spec.k_top,
        "caps_total": sum(spec.caps),
        **kwargs,
    }
    try:
        sides = sides_of(spec=spec, **kwargs)
    except NonpositiveGap:
        sides = None
        params["bound_exponent"] = occupation_bound_exponent(spec=spec, **kwargs)
    involved = [kwargs[a] for a in ("j", "k") if a in kwargs]  # the modes the arguments name
    budget = spec.relevant_budget(involved + [k for k, _ in kwargs.get("targets", ())])
    report = {"check": name, "params": params, "lhs": None, "rhs": None,
              "residual": None, "tail_budget": budget, "pass": None}
    if sides is not None:
        lhs, rhs = sides
        allowance = (budget + _FLOAT_ATOL_FACTOR) * max(1.0, abs(lhs), abs(rhs))
        report.update(lhs=lhs, rhs=rhs, residual=lhs - rhs)
        report["pass"] = relation(lhs, rhs, allowance)
    return report

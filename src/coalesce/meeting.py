"""Meeting-time and hitting-time functionals.

Exact quantities come from linear solves and uniformization on the two-walker
product chain, which is handled by index arithmetic over pairs and never
materialized as a graph.  Monte Carlo fallbacks simulate the pair of walkers
event by event for graphs beyond the dense caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._flat import FlatGraph, chain_walk, walk_pair
from .chains import MarkovChain, jump_kernel, spectrum, uniformize
from .errors import BadSubset, NotTransitive, ParameterOutOfRange, TooLargeForExact
from .graphs import Graph
from .seeding import BufferedDraws

__all__ = [
    "MeetingProfile",
    "ExitMeasure",
    "pairwise_meeting_times",
    "mean_meeting_time",
    "alpha_survival",
    "exit_measure",
    "kac_residual",
    "aldous_brown_check",
    "eigentime_residual",
    "mc_pair_meeting",
]

_PAIR_CAP = 250_000


@dataclass(frozen=True, eq=False)
class MeetingProfile:
    """Expected pairwise meeting times and their stationary averages."""

    pairwise: np.ndarray
    t_meet_pi: float
    t_meet_distinct: float
    residual: float


def _pair_system(c: MarkovChain):
    """Sparse linear system for expected diagonal hitting times of the
    two-walker product chain, restricted to off-diagonal pair states."""
    n = c.n
    rows, cols, data = [], [], []
    xs, ys = np.nonzero(c.rates)
    vals = c.rates[xs, ys]
    grid = np.arange(n)
    for a, b, r in zip(xs, ys, vals):
        # first coordinate jumps a -> b in states (a, y); target (b, y)
        y = grid[(grid != a) & (grid != b)]
        rows.append(a * n + y)
        cols.append(b * n + y)
        data.append(np.full(len(y), -r))
        # second coordinate jumps a -> b in states (x, a); target (x, b)
        x = grid[(grid != a) & (grid != b)]
        rows.append(x * n + a)
        cols.append(x * n + b)
        data.append(np.full(len(x), -r))
    rr = c.row_rates
    diag_states = grid * n + grid
    p = np.arange(n * n)
    off_mask = np.ones(n * n, dtype=bool)
    off_mask[diag_states] = False
    rows.append(p[off_mask])
    cols.append(p[off_mask])
    total = np.add.outer(rr, rr).ravel()
    data.append(total[off_mask])
    mat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    )
    sub = mat[off_mask][:, off_mask]
    return sub, off_mask


def pairwise_meeting_times(c: MarkovChain) -> MeetingProfile:
    """Expected meeting time for every ordered starting pair."""
    n = c.n
    if n * n > _PAIR_CAP:
        raise TooLargeForExact("pair state space capped at 250000")
    sub, off_mask = _pair_system(c)
    b = np.ones(sub.shape[0])
    # the system is symmetric; this ordering fills in far less than COLAMD
    sol = spla.splu(sub.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    residual = float(np.abs(sub @ sol - b).max())
    full = np.zeros(n * n)
    full[off_mask] = sol
    pairwise = full.reshape(n, n)
    t_pi = float(pairwise.sum() / (n * n))
    t_distinct = float(pairwise.sum() / (n * (n - 1)))
    return MeetingProfile(
        pairwise=pairwise,
        t_meet_pi=t_pi,
        t_meet_distinct=t_distinct,
        residual=residual,
    )


def mean_meeting_time(c: MarkovChain, mode: str = "pi_pi") -> float:
    """Mean meeting time under independent uniform starts.

    pi_pi averages over all ordered pairs including the zero diagonal;
    distinct conditions on unequal starts.
    """
    profile = pairwise_meeting_times(c)
    if mode == "pi_pi":
        return profile.t_meet_pi
    if mode == "distinct":
        return profile.t_meet_distinct
    raise ParameterOutOfRange(f"unknown mode {mode!r}")


def _killed_pair_survival(c: MarkovChain, mu0: np.ndarray, times, tol=1e-12):
    """P(no meeting by each time) for a pair law mu0 on off-diagonal states.

    Uniformizes the product chain in matrix form (state (x,y) at entry
    [x, y]) with the diagonal absorbing, so memory stays O(n^2).  Returns
    the survival values, the term count and the dropped Poisson tail mass.
    """
    q = c.generator()
    lam2 = 2.0 * c.r_max

    def step(m):
        m = m + (q @ m + m @ q) / lam2
        np.fill_diagonal(m, 0.0)
        return np.clip(m, 0.0, None, out=m)

    m0 = mu0.copy()
    np.fill_diagonal(m0, 0.0)
    acc, terms, tail = uniformize(step, m0, lam2, times, tol)
    return [float(a.sum()) for a in acc], terms, tail


def alpha_survival(
    c,
    x: int,
    t: float,
    mode: str = "exact",
    reps: int = 10_000,
    rng: np.random.Generator | None = None,
) -> dict:
    """Rate-weighted no-meeting probability for walkers from x and a random
    neighbor of x: r(x) * P(no meeting by t).

    Accepts a chain or a graph (per-edge-unit rates).  exact mode runs
    killed-pair uniformization on the n^2 pair states; mc mode simulates the
    pair event by event and returns a 95% normal interval.
    """
    if isinstance(c, Graph):
        from .chains import build_generator

        c = build_generator(c)
    if t < 0.0:
        raise ParameterOutOfRange("t must be nonnegative")
    rx = float(c.row_rates[x])
    if mode == "exact":
        if c.n * c.n > _PAIR_CAP:
            raise TooLargeForExact("exact alpha capped at 250000 pair states")
        mu0 = np.zeros((c.n, c.n))
        mu0[x, :] = c.rates[x] / rx
        surv, terms, tail = _killed_pair_survival(c, mu0, [t])
        return {"value": rx * surv[0], "stderr": 0.0, "terms": terms,
                "tail_mass": tail}
    if mode != "mc":
        raise ParameterOutOfRange(f"unknown mode {mode!r}")
    if rng is None:
        raise ParameterOutOfRange("mc mode needs an rng")
    rate, neighbor = chain_walk(c)
    draws = BufferedDraws(rng)
    hits = 0
    for _ in range(reps):
        b = neighbor(x, draws.u01())
        if walk_pair(rate, neighbor, x, b, draws, t_max=t)[0] == "time":
            hits += 1
    p = hits / reps
    se = (p * (1.0 - p) / reps) ** 0.5
    return {
        "value": rx * p,
        "stderr": rx * se,
        "ci95": (rx * (p - 1.96 * se), rx * (p + 1.96 * se)),
    }


@dataclass(frozen=True, eq=False)
class ExitMeasure:
    A: tuple
    weights: np.ndarray
    Q_A: float


def exit_measure(c: MarkovChain, A) -> ExitMeasure:
    """Stationary exit law from A onto its complement, with the exit flow."""
    A = _check_subset(c.n, A)
    mask = np.zeros(c.n, dtype=bool)
    mask[list(A)] = True
    pi = 1.0 / c.n
    flow = pi * c.rates[mask][:, ~mask].sum()
    weights = np.zeros(c.n)
    weights[~mask] = pi * c.rates[mask][:, ~mask].sum(axis=0) / flow
    return ExitMeasure(A=tuple(sorted(A)), weights=weights, Q_A=float(flow))


def _check_subset(n: int, A):
    A = set(int(a) for a in A)
    if not A or len(A) >= n:
        raise BadSubset("need a proper nonempty subset")
    if any(a < 0 or a >= n for a in A):
        raise BadSubset("subset contains out-of-range states")
    return A


def _hitting_times(c: MarkovChain, A) -> np.ndarray:
    """Expected hitting time of A from every state (zero on A)."""
    mask = np.zeros(c.n, dtype=bool)
    mask[list(A)] = True
    q = c.generator()
    sub = -q[~mask][:, ~mask]
    h = np.zeros(c.n)
    h[~mask] = np.linalg.solve(sub, np.ones(int((~mask).sum())))
    return h


def kac_residual(c: MarkovChain, A) -> float:
    """Defect of the stationary flow identity
    pi(A^c) = Q(A, A^c) * E_{exit law}(T_A); zero for exact arithmetic."""
    A = _check_subset(c.n, A)
    em = exit_measure(c, A)
    h = _hitting_times(c, A)
    lhs = 1.0 - len(A) / c.n
    rhs = em.Q_A * float(em.weights @ h)
    return abs(lhs - rhs)


def _survival_curve(c: MarkovChain, A, times, tol=1e-12):
    """P_pi(T_A > t) on a time grid by absorbing-set uniformization."""
    mask = np.zeros(c.n, dtype=bool)
    mask[list(A)] = True
    kernel, lam = jump_kernel(c)
    ksub_t = kernel[~mask][:, ~mask].T
    v = np.full(int((~mask).sum()), 1.0 / c.n)
    acc = uniformize(lambda w: ksub_t @ w, v, lam, times, tol)[0]
    return [float(a.sum()) for a in acc]


def aldous_brown_check(c: MarkovChain, A, t_grid) -> list[dict]:
    """Margins of the exponential-approximation bounds for T_A under the
    stationary start: tail bound |P(T_A > t) - exp(-t/E)| <= t_rel/E and the
    density envelope, with the density obtained by central differences of
    the exact survival curve."""
    A = _check_subset(c.n, A)
    h = _hitting_times(c, A)
    e_pi = float(h.mean())
    t_rel = spectrum(c).t_rel
    t_grid = [float(t) for t in t_grid]
    report = []
    for t in t_grid:
        if t < 0.0:
            raise ParameterOutOfRange("negative time in grid")
        if t == 0.0:
            s0 = 1.0 - len(A) / c.n
            report.append(
                {
                    "t": 0.0,
                    "margin_tail": t_rel / e_pi - abs(s0 - 1.0),
                    "margin_density_upper": float("inf"),
                    "margin_density_lower": float("inf"),
                }
            )
            continue
        hstep = min(1e-4, t / 100.0)
        s_minus, s_mid, s_plus = _survival_curve(c, A, [t - hstep, t, t + hstep])
        dens = (s_minus - s_plus) / (2.0 * hstep)
        tail_gap = abs(s_mid - np.exp(-t / e_pi))
        upper = (1.0 / e_pi) * (1.0 + t_rel / (2.0 * t))
        lower = (1.0 / e_pi) * (1.0 - (2.0 * t_rel + t) / e_pi)
        report.append(
            {
                "t": t,
                "margin_tail": t_rel / e_pi - tail_gap,
                "margin_density_upper": upper - dens,
                "margin_density_lower": dens - lower,
            }
        )
    return report


def eigentime_residual(c: MarkovChain, assume_transitive: bool = False) -> float:
    """|sum of inverse nonzero eigenvalues - 2 * mean meeting time|, the
    two sides computed independently; valid for transitive chains."""
    if not (c.transitive or assume_transitive):
        raise NotTransitive("eigentime identity needs a transitive chain")
    spec = spectrum(c)
    profile = pairwise_meeting_times(c)
    return abs(spec.eigentime_sum() - 2.0 * profile.t_meet_pi)


def mc_pair_meeting(
    g: Graph,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
    horizon_events: int | None = None,
) -> dict:
    """Monte Carlo mean meeting time from independent uniform starts.

    Simulates the two walkers event by event with a hard event horizon
    (default 50 n / r_min); censored runs are excluded from the mean and
    counted in the report.
    """
    flat = FlatGraph(g, convention)
    if horizon_events is None:
        horizon_events = int(50 * g.n / flat.r_min)
    draws = BufferedDraws(rng)
    n = g.n
    s1 = 0.0
    s2 = 0.0
    finished = 0
    censored = 0
    for _ in range(reps):
        a = int(draws.u01() * n)
        b = int(draws.u01() * n)
        outcome, clock = walk_pair(
            flat.rate, flat.neighbor, a, b, draws, max_events=horizon_events
        )
        if outcome == "meet":
            s1 += clock
            s2 += clock * clock
            finished += 1
        else:
            censored += 1
    if finished:
        mean = s1 / finished
        var = max(0.0, s2 / finished - mean * mean)
        stderr = (var / finished) ** 0.5
    else:
        mean, stderr = float("nan"), float("nan")
    return {"mean": mean, "stderr": stderr, "finished": finished, "censored": censored}

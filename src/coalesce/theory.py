"""Predicted quantities and the time-reversal branching identity.

Includes the two mean-field prediction forms, the lattice density laws with
the escape-probability constant, walker-pair estimation of the tree
avoidance constant, the exponential-stage sampler for the complete-graph
coalescence law, and a Monte Carlo evaluator for the branching-structure
integral that the k-walker coalescence probability reduces to under time
reversal, which runs its replicates in lockstep on the uniformized chain
pick ``_flat.chain_pick``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import comb, factorial, sqrt, pi, log

import numpy as np

from ._flat import KILLED, MEET, TIME, chain_pick, check_count, check_grid, walk_pairs
from .chains import MarkovChain
from .crw import exact_k_particle_law
from .errors import (
    DegenerateDepth,
    EmptySamples,
    KTooLarge,
    MissingPsi,
    NonpositiveTime,
    ParameterOutOfRange,
)
from .graphs import DegreeDistribution, size_biased

__all__ = [
    "Prediction",
    "mean_field_predictions",
    "bg_prediction",
    "exact_density_1d",
    "psi_d",
    "psi_d_horizon",
    "estimate_psi_d",
    "estimate_alpha_D",
    "alpha_regular_tree",
    "kingman_tau_coal",
    "enumerate_patterns",
    "branching_integral_mc",
    "reversal_identity_residual",
]


@dataclass(frozen=True)
class Prediction:
    """One predicted value with the inputs it was computed from."""

    label: str
    value: float
    inputs: dict
    stderr: float | None = None

    def __post_init__(self):
        if not self.value > 0.0:
            raise ParameterOutOfRange("predictions must be positive")


def mean_field_predictions(n: int, t: float, t_meet: float, alpha_t: float) -> dict:
    """The two mean-field density predictions at time t.

    A1 = 1 / (t * alpha_t) and A2 = 2 * t_meet / (t * n); the two agree
    exactly when alpha_t = n / (2 * t_meet).
    """
    if t <= 0.0:
        raise NonpositiveTime("predictions need t > 0")
    if alpha_t <= 0.0 or t_meet <= 0.0 or n < 2:
        raise ParameterOutOfRange("need positive alpha_t, t_meet and n >= 2")
    return {
        "A1": Prediction("A1", 1.0 / (t * alpha_t), {"t": t, "alpha_t": alpha_t}),
        "A2": Prediction(
            "A2", 2.0 * t_meet / (t * n), {"t": t, "t_meet": t_meet, "n": n}
        ),
    }


def bg_prediction(d: int, t: float, psi_hat: float | None = None) -> float:
    """Lattice density law for unit-total-rate walkers on Z^d:
    1/sqrt(pi t) in d=1, log(t)/(pi t) in d=2, 1/(psi_d t) for d >= 3."""
    if d < 1:
        raise ParameterOutOfRange("dimension must be >= 1")
    if t <= 0.0 or (d == 2 and t <= 1.0):
        raise NonpositiveTime("time outside the prediction's domain")
    [t] = check_grid([t], "t")
    if d == 1:
        return 1.0 / sqrt(pi * t)
    if d == 2:
        return log(t) / (pi * t)
    if psi_hat is None:
        raise MissingPsi("d >= 3 needs an escape-probability estimate")
    if (isinstance(psi_hat, bool) or not isinstance(psi_hat, numbers.Real)
            or not 0.0 < psi_hat <= 1.0):
        raise ParameterOutOfRange(f"psi_hat must be a number in (0, 1], got {psi_hat!r}")
    return 1.0 / (psi_hat * t)


def exact_density_1d(t: float) -> float:
    """Exact density of coalescing walkers on Z, each jumping at total rate
    1, started from every site: e^{-2t} (I_0(2t) + I_1(2t)) (the
    empty-interval method).  It decays like the d = 1 lattice law
    1/sqrt(pi t).

    On the cycle Z_n the same walkers see the law of Z only while their
    spread sqrt(t) is far below n, so it is exact for cycles up to a
    wrap-around error that needs t << n^2.
    """
    [t] = check_grid([t], "t")
    from scipy.special import ive

    # ive(v, x) = e^{-x} I_v(x) keeps both terms finite at large t
    return float(ive(0, 2.0 * t) + ive(1, 2.0 * t))


def psi_d(d: int) -> float:
    """Escape probability of simple random walk on Z^d, exactly:
    1 / integral_0^inf e^{-t} I_0(t/d)^d dt (Montroll 1956), the Green
    function at the origin of the continuous-time walk.  Recurrent
    dimensions (d = 1, 2) escape with probability 0."""
    d = _dimension(d)
    if d < 3:
        return 0.0
    # scipy.integrate takes 0.7 s to import: only callers pay for it
    from scipy.integrate import quad
    from scipy.special import ive

    green = quad(lambda t: ive(0, t / d) ** d, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13,
                 limit=200)[0]
    return 1.0 / green


def psi_d_horizon(d: int, horizon_steps: int) -> float:
    """P(simple walk on Z^d does not return to the origin within
    ``horizon_steps`` steps), exactly, for d = 1 and 3: the value
    ``estimate_psi_d`` targets.  It decreases to ``psi_d(d)`` as the
    horizon grows.

    The return probabilities are u_2m = C(2m, m)/4^m in d = 1, times
    v(m) = a(m)/9^m in d = 3, where a(m) = sum_{j+k+l=m} (m!/(j!k!l!))^2
    obeys m^2 v(m) = ((10m^2 - 10m + 3) v(m-1) - (m-1)^2 v(m-2)) / 9, run
    forwards (stable: the other root is 1/9).  With U(x) = sum_m u_2m x^m
    and F(x) the generating function of the first return at step 2m,
    1/U = 1 - F, so the answer, 1 - sum_{m <= h/2} f_2m, is the sum of the
    first floor(h/2) + 1 coefficients of 1/U, found by Newton doubling on
    FFT products.  h = 10^5 takes a fraction of a second.
    """
    d = _dimension(d)
    if d not in (1, 3):
        raise ParameterOutOfRange(f"finite-horizon psi is exact in d = 1 and 3, got d = {d}")
    check_count(horizon_steps, 0, "horizon_steps")
    size = int(horizon_steps) // 2 + 1
    m = np.arange(1, size)
    u = np.concatenate(([1.0], np.cumprod((2 * m - 1) / (2 * m))))
    if d == 3:
        v = np.ones(size)
        for k in range(1, size):
            v[k] = ((10 * k * k - 10 * k + 3) * v[k - 1]
                    - (k - 1) ** 2 * (v[k - 2] if k > 1 else 0.0)) / (9 * k * k)
        u *= v
    return float(_series_inverse(u).sum())


def _series_inverse(u: np.ndarray) -> np.ndarray:
    """The first len(u) coefficients of 1/U for the power series U with
    coefficients u (u[0] = 1), by Newton doubling g <- g (2 - U g)."""
    g = np.ones(1)
    while g.size < u.size:
        k, k2 = g.size, min(2 * g.size, u.size)
        # U g is 1 + O(x^k): only its coefficients k..k2-1 correct g
        e = _series_product(u[:k2], g, k2)[k:]
        g = np.concatenate((g, -_series_product(g, e, k2 - k)))
    return g


def _series_product(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` coefficients of the product of two series."""
    n = 1 << (a.size + b.size - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[:size]


def _dimension(d) -> int:
    if isinstance(d, bool) or not isinstance(d, numbers.Real) or d != int(d) or d < 1:
        raise ParameterOutOfRange(f"dimension must be an integer >= 1, got {d!r}")
    return int(d)


def _check_reps(reps, what):
    if check_count(reps, 0) < 1:
        raise EmptySamples(f"need at least one {what}")


# double steps per escape-walk chunk, and cells (walk x double step) per
# slab of walks drawn at once
_PSI_CHUNK = 128
_PSI_CELLS = 1 << 17


def _lattice_code(d: int, horizon_steps: int):
    """Field width and place values of the packed code of a point of Z^d
    with every coordinate within +-horizon_steps.

    Each coordinate is a signed field of ``bits`` bits, ``63 // bits``
    fields to an int64 word, so the code of x is the word vector
    ``place @ x``: exact, free of overflow, and zero only at the origin.
    """
    bits = (horizon_steps + 1).bit_length() + 1
    per_word = 63 // bits
    j = np.arange(d)
    place = np.zeros((-(-d // per_word), d), dtype=np.int64)
    place[j // per_word, j] = np.left_shift(1, bits * (j % per_word), dtype=np.int64)
    return bits, place


def estimate_psi_d(
    d: int, horizon_steps: int, reps: int, rng: np.random.Generator
) -> dict:
    """Fraction of discrete simple walks on Z^d with no return to the origin
    within the step horizon.  The jump chain suffices: escape probabilities
    are invariant under the continuous-time embedding.  Finite horizons bias
    the estimate upward; ``psi_d_horizon`` gives the exact finite-horizon
    value in d = 1 and 3.

    A walk is back at the origin only after an even number of steps, so the
    live walks advance by double steps, one of (2d)^2 direction pairs, in
    chunks of ``_PSI_CHUNK``, a slab of ``_PSI_CELLS`` cells at a time.  A
    walk is kept as the packed lattice code of its position
    (``_lattice_code``, one int64 word for d = 3 up to horizons past 10^5),
    each double step adds the code of its displacement, and the walk is back
    exactly when every word of the running code is 0.

    Each double step is one word of raw generator bits: a byte while
    (2d)^2 <= 256, otherwise the narrowest wider word that holds the pairs.
    Every word at or above the largest multiple of (2d)^2 the word holds is
    redrawn, in place and in order, so the pairs are exactly uniform (4
    bytes in 256 at d = 3), and one take from a table over the accepted
    word values maps each word to its pair's code.  A slab is held
    step-major, one row per double step, so the running codes are row sums.
    A chunk is drawn in full and cut at the horizon, so two horizons share
    their draws up to the shorter one.
    """
    d = _dimension(d)
    check_count(horizon_steps, 0, "horizon_steps")
    _check_reps(reps, "walk")
    # direction 2j + s moves axis j by 2s - 1; pair 2d * f + g is f then g,
    # and its code is the sum of the two directions' codes
    unit = np.zeros((2 * d, d), dtype=np.int64)
    unit[np.arange(2 * d), np.arange(2 * d) >> 1] = np.tile([-1, 1], d)
    u = _lattice_code(d, int(horizon_steps))[1] @ unit.T
    code_words = u.shape[0]
    pair_code = (u[:, :, None] + u[:, None, :]).reshape(code_words, -1)
    npair = pair_code.shape[1]
    word = np.min_scalar_type(npair - 1)
    accept = (1 << 8 * word.itemsize) // npair * npair
    # past 16 bits a table over every accepted word would not fit: such
    # words are folded onto their pair before the take
    wide = word.itemsize > 2
    table = pair_code if wide else pair_code[:, np.arange(accept) % npair]

    def draw(n):
        return rng.bit_generator.random_raw(-(-n * word.itemsize // 8)).view(word)[:n]

    # one column per live walk: the code of its position
    code = np.zeros((code_words, reps), dtype=np.int64)
    rows = _PSI_CELLS // _PSI_CHUNK
    index = np.empty(_PSI_CELLS, dtype=np.intp)
    running = np.empty(code_words * _PSI_CELLS, dtype=np.int64)
    done = 0
    while done < horizon_steps // 2 and code.shape[1]:
        span = min(_PSI_CHUNK, horizon_steps // 2 - done)
        keep = []
        for lo in range(0, code.shape[1], rows):
            c = code[:, lo:lo + rows]
            cells = _PSI_CHUNK * c.shape[1]
            moves = draw(cells)
            redo = np.flatnonzero(moves >= accept)
            while redo.size:
                moves[redo] = draw(redo.size)
                redo = redo[moves[redo] >= accept]
            if wide:
                moves %= npair
            idx = index[:cells].reshape(_PSI_CHUNK, -1)
            np.copyto(idx, moves.reshape(idx.shape))
            run = running[:code_words * cells].reshape(code_words, _PSI_CHUNK, -1)
            table.take(idx, axis=1, out=run, mode="clip")
            # the code of the position after each double step
            prev, *later = run.swapaxes(0, 1)
            prev += c
            for row in later:
                row += prev
                prev = row
            back = run[:, :span] == 0
            for k in range(1, code_words):
                back[0] &= back[k]
            c[:] = prev
            keep.append(~back[0].any(axis=0))
        code = code[:, np.concatenate(keep)]
        done += span
    psi = code.shape[1] / reps
    return {
        "psi_hat": psi,
        "stderr": sqrt(psi * (1.0 - psi) / reps),
        "upper_biased": True,
        "horizon_steps": horizon_steps,
    }


# _Forest.base marks: children not grown yet, and none allowed (depth ball);
# a slot index added to either stays below _BARE and below -1 respectively
_UNGROWN, _DEEP = -(1 << 30), -(1 << 20)
_BARE = -(1 << 29)

# replicates per forest: each grows about 75 vertices on delta(3) at depth
# 30 (the two-walker kernel walks a block's paths past a pair's end), at 16
# bytes a vertex, so a forest stays near 5 MB; room for 128 a tree is
# reserved, but a page is resident only once written
_TREE_BLOCK = 1 << 12


class _Forest:
    """One rooted tree per replicate, as flat arrays grown on demand: a
    root's child count from D, every other vertex's from the size-biased
    law.  Vertex v has degree ``deg[v]``, ``parent[v]`` (-1 at a root) and
    ``depth[v]``; its slot j >= 1 (j >= 0 at a root) holds the vertex
    ``base[v] + j``, its child.  ``base[v]`` is ``_UNGROWN`` until the
    children are first needed, and ``_DEEP`` at depth ``max_depth``: a jump
    deeper returns -1, which kills the walker pair, and grows nothing.
    ``pick`` is one jump of the walk, ``steps`` the walk uniformized at a
    rate r_max for ``_flat.walk_pairs``."""

    def __init__(self, root_degree, offspring, rng, max_depth):
        n = root_degree.size
        self.offspring = offspring
        self.rng = rng
        self.max_depth = max_depth
        self.size = n
        cap = 128 * n
        self.deg = np.empty(cap, dtype=np.int32)
        self.parent = np.empty(cap, dtype=np.int32)
        self.depth = np.empty(cap, dtype=np.int32)
        self.base = np.empty(cap, dtype=np.int32)
        self.deg[:n] = root_degree
        self.parent[:n] = -1
        self.depth[:n] = 0
        self.base[:n] = _UNGROWN

    def _grow(self, vs):
        """Children for the distinct vertices vs, none grown yet."""
        below_root = self.parent[vs] >= 0
        nk = self.deg[vs] - below_root
        total = int(nk.sum())
        lo, hi = self.size, self.size + total
        if hi > self.deg.size:
            cap = max(hi, 2 * self.deg.size)
            for name in ("deg", "parent", "depth", "base"):
                old = getattr(self, name)
                new = np.empty(cap, dtype=np.int32)
                new[:lo] = old[:lo]
                setattr(self, name, new)
        self.base[vs] = lo + np.cumsum(nk) - nk - below_root
        parent = np.repeat(vs, nk)
        self.parent[lo:hi] = parent
        depth = self.depth[parent] + 1
        self.depth[lo:hi] = depth
        # offspring count + parent edge gives the child's degree
        self.deg[lo:hi] = self.offspring(self.rng.random(total)) + 1
        self.base[lo:hi] = np.where(depth < self.max_depth, _UNGROWN, _DEEP)
        self.size = hi

    def _move(self, v, j):
        """The vertex in slot j of each vertex v; v itself where j >= deg[v]
        (a stay) or v = -1 (a killed walker)."""
        # mode="clip" sends -1 to vertex 0; its entries are discarded below
        parent = self.parent.take(v, mode="clip")
        w = self.base.take(v, mode="clip") + j
        # slot 0 of a non-root vertex is its parent, the rest its children
        np.copyto(w, parent, where=(j == 0) & (parent >= 0))
        np.copyto(w, v, where=(j >= self.deg.take(v, mode="clip")) | (v < 0))
        bare = np.flatnonzero(w < _BARE)
        if bare.size:
            vb = v[bare]
            # one entry per distinct vertex: the last to write its mark
            self.base[vb] = np.arange(vb.size)
            self._grow(vb[self.base[vb] == np.arange(vb.size)])
            w[bare] = self.base[vb] + j[bare]
        # a jump from depth max_depth lands below -1
        return np.maximum(w, -1, out=w)

    def pick(self, v, u):
        """Neighbor of each vertex v in slot floor(u * deg[v]), or -1 past
        the depth ball."""
        return self._move(v, (u * self.deg[v]).astype(np.int64))

    def steps(self, v, u, out, r_max):
        """Walks from v uniformized at r_max, one step per row of u, into
        out as in ``_flat.graph_pick``: slot floor(u * r_max), a stay when
        that is past deg[v]; a killed walker stays at -1."""
        np.multiply(u, r_max, out=u)
        np.copyto(out, u, casting="unsafe")
        for k in range(out.shape[0]):
            v = out[k] = self._move(v, out[k])
        return out


def _sampler(dist: DegreeDistribution):
    """Draws from a degree law, by inverse CDF of uniform variates."""
    values = np.array([d for d, _ in dist.support], dtype=np.int64)
    cum = np.cumsum([p for _, p in dist.support])

    def draw(u):
        # the clip absorbs a total probability that rounds below 1
        return values[np.minimum(np.searchsorted(cum, u, side="right"), values.size - 1)]

    return draw


def estimate_alpha_D(
    D: DegreeDistribution,
    depth: int,
    t_horizon: float,
    reps: int,
    rng: np.random.Generator,
) -> dict:
    """Root-degree-weighted no-meeting probability on the random tree.

    Runs two walkers from the root and a uniform root neighbor on a fresh
    lazily grown tree per replicate, stopping at the first of: meeting,
    either walker leaving the radius-``depth`` ball (scored as never
    meeting, by transience), or the time horizon.  Horizon-censored pairs
    still inside the ball are scored as surviving in ``alpha_hat`` and as
    meeting in ``alpha_low``; the bracket and censoring fraction are
    reported.  Replicates run on the two-walker kernel ``_flat.walk_pairs``
    in blocks of ``_TREE_BLOCK``, each block's trees held in one
    ``_Forest``, the walks uniformized at D's largest degree; ``events``
    counts the uniformized events the pairs used and ``thinned`` the stays
    among them (none on delta(d)).
    """
    if isinstance(depth, bool) or not isinstance(depth, numbers.Integral):
        raise ParameterOutOfRange(f"depth must be an integer, got {depth!r}")
    if depth < 3:
        raise DegenerateDepth("depth ball must have radius >= 3")
    [t_horizon] = check_grid([t_horizon], "t_horizon")
    _check_reps(reps, "replicate")
    root_degree = _sampler(D)
    offspring = _sampler(size_biased(D))
    r_max = D.max_degree
    s_hi = s_hi2 = 0.0
    s_lo = 0.0
    censored = events = thinned = 0
    for lo in range(0, reps, _TREE_BLOCK):
        size = min(_TREE_BLOCK, reps - lo)
        k_root = root_degree(rng.random(size))
        forest = _Forest(k_root, offspring, rng, depth)
        roots = np.arange(size)
        b = forest.pick(roots, rng.random(size))
        outcome, _, used, stays = walk_pairs(
            r_max, partial(forest.steps, r_max=r_max), roots, b, rng, t_max=t_horizon)
        # KILLED: a walker left the ball; TIME: censored at the horizon
        weight = k_root.astype(float)
        hi = weight[outcome != MEET]
        censored += int(np.count_nonzero(outcome == TIME))
        events += int(used.sum())
        thinned += int(stays.sum())
        s_hi += float(hi.sum())
        s_hi2 += float(hi @ hi)
        s_lo += float(weight[outcome == KILLED].sum())
    mean_hi = s_hi / reps
    mean_lo = s_lo / reps
    var_hi = max(0.0, s_hi2 / reps - mean_hi**2)
    return {
        "alpha_hat": mean_hi,
        "stderr": sqrt(var_hi / reps),
        "alpha_low": mean_lo,
        "alpha_high": mean_hi,
        "censored_fraction": censored / reps,
        "events": events,
        "thinned": thinned,
    }


def alpha_regular_tree(d: int) -> float:
    """alpha(delta_d) exactly: d(d - 2)/(d - 1), the limit of
    ``estimate_alpha_D`` on ``DegreeDistribution.delta(d)``.

    The distance between two walkers on the d-regular tree steps down at
    rate 2 and up at rate 2(d - 1), so from 1 it ever reaches 0 with
    probability 1/(d - 1); the root weight d multiplies the rest.
    """
    if d != int(d) or d < 3:
        raise ParameterOutOfRange("the d-regular tree needs an integer d >= 3")
    return d * (d - 2) / (d - 1)


def kingman_tau_coal(
    n: int, M: float, reps: int, rng: np.random.Generator
) -> dict:
    """Samples of M * sum_{k=2..n} tau_k / C(k,2) with tau_k i.i.d. Exp(1),
    the exact complete-graph coalescence law when M is the mean pair meeting
    time from distinct starts; analytic mean 2 M (1 - 1/n)."""
    n = check_count(n, 2, "n")
    reps = check_count(reps)
    if not 0.0 < M < float("inf"):
        raise ParameterOutOfRange(f"M must be positive and finite, got {M!r}")
    inv_rates = np.array([1.0 / comb(k, 2) for k in range(2, n + 1)])
    taus = rng.standard_exponential((reps, n - 1))
    return {
        "samples": M * taus @ inv_rates,
        "mean_analytic": 2.0 * M * (1.0 - 1.0 / n),
    }


def enumerate_patterns(k: int) -> list[list[int]]:
    """All branching index vectors [i_0..i_k] with i_0 = 0 and
    0 <= i_l <= l-1, in lexicographic order; there are k! of them."""
    if k < 1 or k > 6:
        raise KTooLarge("pattern enumeration supported for 1 <= k <= 6")
    return [[0, *rest] for rest in product(*(range(max(1, l)) for l in range(1, k + 1)))]


def branching_integral_mc(
    c: MarkovChain, k: int, t: float, reps: int, rng: np.random.Generator
) -> dict:
    """Monte Carlo value of the summed branching-structure integral.

    Each replicate draws a uniform first walker, ordered branch times
    uniformly on the simplex (sorted uniforms on [0, t]) and a branching
    pattern uniformly (importance weight k!), and grows the walker family
    with each newborn placed by one jump from its parent.  It scores if no
    two walkers ever share a vertex on their common lifetime.

    The walks are uniformized at the chain's largest rate r_max, on
    ``_flat.chain_pick``: a family of b walkers rings at rate b r_max, and
    a ring moves a uniform walker to y with probability r(x, y) / r_max or
    leaves it in place.  A newborn is placed by the same pick from its
    parent, so one that stays lands on its parent and scores 0: each birth
    weighs r_max where the integral weighs r(parent), with the same
    expectation.  The estimator is (t r_max)^k times the surviving
    fraction, unbiased for the pattern-summed integral.

    The replicates run in lockstep, ``_BRANCH_BLOCK`` rows at a time.
    Each iteration draws one exponential, which sets a live row's next
    ring, and two uniforms, the mover and its pick, for every live row: a
    row whose next birth comes by its ring is born into, one whose ring is
    past t retires as a survivor, and the rest move a walker.  A landing on
    another walker of the family retires the row.
    """
    if check_count(k, 1, "k") > 3:
        raise KTooLarge("branching Monte Carlo supported for 1 <= k <= 3")
    [t] = check_grid([t], "t")
    reps = check_count(reps)
    # with no time or no jumps every newborn lands on its parent
    if t == 0.0 or c.r_max == 0.0:
        return {"estimate": 0.0, "stderr": 0.0}
    r_max, pick = chain_pick(c)
    parents = np.array(enumerate_patterns(k))
    survivors = sum(_branching_survivors(c.n, r_max, pick, parents, t,
                                         min(_BRANCH_BLOCK, reps - lo), rng)
                    for lo in range(0, reps, _BRANCH_BLOCK))
    p = survivors / reps
    scale = (t * r_max) ** k
    return {"estimate": scale * p, "stderr": scale * sqrt(p * (1.0 - p) / reps)}


# replicates per lockstep block of the branching estimator: at up to 250
# bytes a row a block peaks near 4 MB, whatever the replicate count; blocks
# of 2^15 to 2^17 rows ran no faster
_BRANCH_BLOCK = 1 << 14


def _branching_survivors(n, r_max, pick, parents, t, size, rng) -> int:
    """Surviving replicates among ``size``, run in lockstep: row i holds
    walker positions (-1 until born), the k sorted birth times padded with
    +inf, a pattern (the index of a row of ``parents``, whose entry j is
    walker j's parent), the number b of walkers born and the clock."""
    k = parents.shape[1] - 1
    pos = np.full((size, k + 1), -1, dtype=np.int64)
    pos[:, 0] = rng.random(size) * n
    births = np.full((size, k + 1), np.inf)
    births[:, :k] = np.sort(rng.random((size, k)) * t, axis=1)
    pattern = (rng.random(size) * parents.shape[0]).astype(np.int64)
    born = np.ones(size, dtype=np.int64)
    clock = np.zeros(size)
    survivors = 0
    while size:
        rows = np.arange(size)
        ring = clock + rng.standard_exponential(size) / (born * r_max)
        due = births[rows, born - 1]
        birth = due <= ring
        u = rng.random((2, size))
        # a birth places walker b from its parent, a ring moves a uniform one
        mover = np.where(birth, born, (u[0] * born).astype(np.int64))
        source = np.where(birth, parents[pattern, np.minimum(born, k)], mover)
        new = pick(pos[rows, source], u[1:], np.empty((1, size), dtype=np.int64))[0]
        hit = pos == new[:, None]
        hit[rows, mover] = False
        pos[rows, mover] = new
        born += birth
        clock = np.where(birth, due, ring)
        done = ~birth & (ring > t)
        survivors += int(np.count_nonzero(done))
        go = ~(done | hit.any(axis=1))
        pos, births, pattern, born, clock = pos[go], births[go], pattern[go], born[go], clock[go]
        size = pos.shape[0]
    return survivors


def reversal_identity_residual(
    c: MarkovChain, k: int, t: float, reps: int, rng: np.random.Generator
) -> dict:
    """Standardized gap between (k+1)! times the branching-integral Monte
    Carlo and the exact joint probability that k+1 independent uniform
    walkers start pairwise distinct and coalesce by t, scaled by n^k.  It
    needs two replicates for a standard error."""
    check_count(reps, 2)
    mc = branching_integral_mc(c, k, t, reps, rng)
    fact = factorial(k + 1)
    lhs = fact * mc["estimate"]
    se = fact * mc["stderr"]
    cond = exact_k_particle_law(c, k, t, start="distinct")["p_coal"]
    n = c.n
    p_distinct = 1.0
    for j in range(1, k + 1):
        p_distinct *= 1.0 - j / n
    exact = (n**k) * cond * p_distinct
    if se == 0.0:
        resid = 0.0 if abs(lhs - exact) < 1e-12 else float("inf")
    else:
        resid = abs(lhs - exact) / se
    return {"residual": resid, "mc": lhs, "exact": exact, "stderr": se}


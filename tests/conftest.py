import math
import sys
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from coalesce import _checks, _flat, chains, runner, verify
from coalesce._checks import IRREGULAR_RATES, _lollipop, run_checks  # noqa: F401
from coalesce.config import _TASK_KINDS as KINDS  # noqa: F401
from coalesce.chains import _jump_kernel, build_generator, uniformize
from coalesce.graphs import complete_graph, cycle_graph, path_graph, torus_graph
from coalesce.meeting import _survival

# K4 with a three-edge tail: irregular, so the kernels thin rings
LOLLIPOP = _lollipop()


def checks_pass(seed, *names):
    """Run the named checks of the shared table at ``seed`` and assert that
    each passes."""
    out = run_checks(names, seed)
    for name, o in out.items():
        assert o.ok, (name, o)
    return out


def task_values(g, task, times, reps, rng, convention="per_edge_unit"):
    """A runner task's values, as ``runner._task_values`` stacks them, at a
    master seed drawn from ``rng`` as the rng-taking views draw it."""
    return runner._task_values(g, convention, {"task": task}, times, reps,
                               int(rng.integers(1 << 63)))[2]


def dense(csr, n):
    """The n x n matrix that CSR arrays (offsets, columns, values) describe,
    for comparisons with dense references."""
    off, cols, vals = csr
    m = np.zeros((n, n))
    m[np.repeat(np.arange(n), np.diff(off)), cols] = vals
    return m


class DenseBuilt:
    """A chain's inputs built from a dense rate matrix, the way a dense
    ``MarkovChain.rates`` gave them: row totals by numpy's row sums, the
    generator made sparse from its dense form, entries and rows in
    ``np.nonzero`` order.  The oracles read a chain only through these, so
    on this stand-in they compute what they computed from dense rates."""

    def __init__(self, rates, family=None, convention="custom"):
        self._r = np.asarray(rates, dtype=float)
        self.n = len(self._r)
        self.family, self.convention, self.transitive = family, convention, False
        self.row_rates = self._r.sum(axis=1)
        self.r_max, self.r_min = float(self.row_rates.max()), float(self.row_rates.min())
        m = sp.csr_matrix(self._r)
        self.csr = (m.indptr, m.indices, m.data)

    def generator(self):
        q = self._r.copy()
        np.fill_diagonal(q, -self.row_rates)
        return sp.csr_matrix(q)

    def entries(self):
        rows, cols = np.nonzero(self._r)
        return rows, cols, self._r[rows, cols]

    def row(self, x):
        cols = np.flatnonzero(self._r[x])
        return cols, self._r[x, cols]

    @cached_property
    def _group(self):
        return chains._translation_group(self)

    @cached_property
    def _family_rates(self):
        return chains._has_family_rates(self)


def per_ring_kernel(c, occ, move):
    """Reference: the transposed jump kernel of a process on the rows of the
    0/1 occupancy matrix ``occ`` (states x sites) in which a ring of (x, y)
    moves every occupant of x to y, built one ring at a time; ``move(src,
    x, y)`` returns the targets of the states ``src``, all occupied at x.
    Returns (kernel^T, rate)."""
    nstates = occ.shape[0]
    exit_rate = occ @ c.row_rates
    lam = float(exit_rate.max())
    idx = np.arange(nstates, dtype=np.int64)
    rows, cols = [idx], [idx]
    data = [1.0 - exit_rate / lam if lam > 0.0 else np.ones(nstates)]
    for x, y, r in zip(*c.entries()):
        src = np.flatnonzero(occ[:, x])
        rows.append(move(src, int(x), int(y)))
        cols.append(src)
        data.append(np.full(src.size, r / lam))
    kernel_t = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nstates, nstates),
    )
    return kernel_t, lam


def subset_kernel_reference(c):
    """Reference: the subset chain's transposed kernel and rate by
    ``per_ring_kernel`` on the occupancy matrix of the nonempty subsets."""
    masks = np.arange(1, 1 << c.n, dtype=np.int64)
    occ = ((masks[:, None] >> np.arange(c.n)) & 1).astype(bool)

    def move(src, x, y):
        return (((src + 1) & ~(1 << x)) | (1 << y)) - 1

    return per_ring_kernel(c, occ, move)


def k_particle_reference(c, k, t, start, pinned):
    """Reference: the coalescence law of k+1 labeled walkers on the
    occupancy matrix of the listed states, by ``per_ring_kernel``; on V^{k+1},
    or with ``pinned`` on the n^k states with walker 0 at the identity of
    ``translation_group``.  Returns (law as ``exact_k_particle_law`` gives
    it, kernel^T, rate)."""
    n = c.n
    free = k if pinned else k + 1
    nstates = n**free
    powers = n ** np.arange(free, dtype=np.int64)
    coords = (np.arange(nstates, dtype=np.int64)[:, None] // powers[None, :]) % n
    if pinned:
        add, neg = chains.translation_group(c)
        coords = np.hstack([np.zeros((nstates, 1), dtype=np.int64), coords])
    occ = np.zeros((nstates, n), dtype=bool)
    occ[np.arange(nstates)[:, None], coords] = True
    sites = occ.sum(axis=1)

    def move(src, x, y):
        moved = coords[src]
        moved[moved == x] = y
        if pinned:
            moved = add(moved[:, 1:], neg(y)) if x == 0 else moved[:, 1:]
        return moved @ powers

    kt, lam = per_ring_kernel(c, occ, move)
    if start == "pi_tensor":
        mu = np.full(nstates, 1.0 / nstates)
    else:
        mu = np.where(sites == k + 1, 1.0, 0.0)
        mu /= mu.sum()
    acc, terms, tail = uniformize(kt.dot, mu, lam, [t], 1e-10)
    p = float(acc[0][sites == 1].sum())
    out = {"p_coal": p, "start": start, "k": k, "t": t, "terms": terms, "tail_mass": tail}
    if start == "pi_tensor":
        out["e_ntk"] = float(n**k) * p
    return out, kt, lam


def pair_generator(c):
    """Reference: the sparse n^2-state generator of two independent copies
    of c, state x * n + y, as a Kronecker sum."""
    q = c.generator()
    eye = sp.identity(c.n, format="csr")
    return sp.kron(q, eye, format="csr") + sp.kron(eye, q, format="csr")


def difference_generator(c, add):
    """Reference: the sparse generator of Y - X for two independent copies
    of a chain whose rates are translation invariant, built entry by entry:
    the difference moves by g at rate r(0, g) + r(0, -g) = 2 r(0, g)."""
    n = c.n
    ids = np.arange(n, dtype=np.int64)
    gens, base = c.row(0)
    rows = np.concatenate([np.repeat(ids, gens.size), ids])
    cols = np.concatenate([add(np.repeat(ids, gens.size), np.tile(gens, n)), ids])
    data = np.concatenate([np.tile(2.0 * base, n), np.full(n, -2.0 * c.row_rates[0])])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def generator_survival(q, mask, mu0, t):
    """P(mask not hit by t) from the law mu0 for the sparse generator q,
    uniformized at its largest total rate."""
    lam = float(-q.diagonal().min())
    return _survival(_jump_kernel(q, lam).dot, lam, mask, mu0, [t])[0][0]


def kron_pairwise(c):
    """Reference: expected meeting times of every ordered pair, by conjugate
    gradients on the Kronecker pair generator restricted off its diagonal."""
    off = ~np.eye(c.n, dtype=bool).ravel()
    h = np.zeros(c.n * c.n)
    h[off], info = spla.cg(-pair_generator(c)[off][:, off], np.ones(off.sum()), rtol=1e-13)
    assert info == 0
    return h.reshape(c.n, c.n)


@pytest.fixture(scope="session")
def k2_chain():
    return build_generator(path_graph(2))


@pytest.fixture(scope="session")
def cycle4_chain():
    return build_generator(cycle_graph(4))


@pytest.fixture(scope="session")
def complete4_chain():
    return build_generator(complete_graph(4))


def stubbed_paper_suite(monkeypatch, density=lambda g: 0.01, se=0.001, meet=(1.0, 0)):
    """verify paper's rows and predictions with every input but the spectrum
    stubbed: each density estimate is ``density(graph)`` with standard error
    ``se``, the configuration model is cycle(30), alpha_t is 3.8, psi_3 is
    0.66, and the pairs' mean meeting time and censored count are ``meet``."""
    monkeypatch.setattr(_checks, "_density", lambda g, conv, times, *a: SimpleNamespace(
        p_hat=[density(g)] * len(times), stderr=[se] * len(times)))
    monkeypatch.setattr(_checks, "psi_d", lambda d: 0.66)
    monkeypatch.setattr(_checks, "alpha_survival", lambda *a, **k: {"value": 3.8, "stderr": 0.01})
    monkeypatch.setattr(_checks, "sample_configuration_model", lambda *a, **k: cycle_graph(30))
    monkeypatch.setattr(_checks, "mc_pair_meeting", lambda *a, **k: {
        "mean": meet[0], "stderr": 0.01, "censored": meet[1]})
    return verify.paper_suite(0, threads=1, scale=0.01)


@pytest.fixture(scope="session")
def torus33_chain():
    return build_generator(torus_graph(3, 3))


@pytest.fixture(scope="session")
def lollipop():
    return LOLLIPOP


class _Recorder:
    """Generator stand-in that keeps a copy of every draw, in call order."""

    def __init__(self, rng):
        self.rng = rng
        self.log = []

    def _keep(self, name, value, *args):
        copy = value if isinstance(value, bytes) else np.array(value)
        self.log.append((name, copy, [np.array(x) for x in args]))
        return value

    def random(self, size=None, out=None):
        return self._keep("random", self.rng.random(size, out=out))

    def bytes(self, length):
        return self._keep("bytes", self.rng.bytes(length))

    def poisson(self, lam, size):
        return self._keep("poisson", self.rng.poisson(lam, size), lam)

    def standard_exponential(self, size):
        return self._keep("standard_exponential", self.rng.standard_exponential(size))

    def standard_gamma(self, shape):
        return self._keep("standard_gamma", self.rng.standard_gamma(shape), shape)

    def beta(self, a, b):
        return self._keep("beta", self.rng.beta(a, b), a, b)


def replay_pairs(r_max, pick, step, a, b, rng, t_max=math.inf, max_events=sys.maxsize):
    """Run ``_flat.walk_pairs`` and replay its draws, in its order, through a
    scalar loop that moves one walker per event with ``step(x, u)``; assert
    that outcomes, event and stay counts and clocks agree exactly, and
    return the kernel's result."""
    recorder = _Recorder(rng)
    result = _flat.walk_pairs(r_max, pick, a, b, recorder, t_max=t_max,
                              max_events=max_events)
    draws = iter(recorder.log)

    def take(name, *args):
        got, value, params = next(draws)
        assert got == name
        assert all(np.array_equal(p, x) for p, x in zip(params, args, strict=True))
        return value

    n = len(a)
    outcome = np.full(n, _flat.MEET, dtype=np.int8)
    events = np.zeros(n, dtype=np.int64)
    thinned = np.zeros(n, dtype=np.int64)
    at = {i: [int(a[i]), int(b[i])] for i in range(n) if a[i] != b[i]}
    live = list(at)
    budget = dict.fromkeys(live, max_events)
    count = np.zeros(n, dtype=np.int64)
    if t_max < math.inf:
        for i, c in zip(live, take("poisson", 2.0 * r_max * t_max)):
            count[i] = c
            budget[i] = min(max_events, int(c))
            outcome[i] = _flat.TIME if c < max_events else _flat.BUDGET
    else:
        outcome[live] = _flat.BUDGET
    live = [i for i in live if budget[i] > 0]
    while live:
        size = len(live)
        steps = _flat.block_steps(size, max(budget[i] - events[i] for i in live))
        u = [take("random").reshape(steps, size), take("random").reshape(steps, size)]
        rows = 2 * steps + 1
        coin = np.unpackbits(np.frombuffer(take("bytes"), dtype=np.uint8),
                             count=rows * size).reshape(rows, size)
        still = []
        for col, i in enumerate(live):
            x = at[i]
            made = [0, 0]
            ended = False
            for e in range(rows):
                # a 1 moves walker a; a walker out of steps ends the block
                w = 0 if coin[e, col] else 1
                if events[i] == budget[i] or made[w] == steps:
                    break
                y = step(x[w], u[w][made[w], col])
                made[w] += 1
                events[i] += 1
                thinned[i] += y == x[w]
                x[w] = y
                if y == -1 or x[0] == x[1]:
                    outcome[i] = _flat.KILLED if y == -1 else _flat.MEET
                    ended = True
                    break
            if not ended and events[i] < budget[i]:
                still.append(i)
        live = still
    out, clock, used, stays = result
    assert np.array_equal(out, outcome)
    assert np.array_equal(used, events)
    assert np.array_equal(stays, thinned)
    timed = outcome == _flat.TIME
    assert np.array_equal(clock[timed],
                          t_max + take("standard_exponential") / (2.0 * r_max))
    k = np.flatnonzero(~timed & (events > 0))
    if t_max < math.inf:
        assert np.array_equal(clock[k], t_max * take("beta", events[k],
                                                     count[k] - events[k] + 1))
    else:
        assert np.array_equal(clock[k], take("standard_gamma", events[k]) / (2.0 * r_max))
    assert not clock[outcome == _flat.MEET][events[outcome == _flat.MEET] == 0].any()
    assert next(draws, None) is None
    return result


@pytest.fixture(scope="session")
def pair_replay():
    return replay_pairs

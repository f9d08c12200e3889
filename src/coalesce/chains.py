"""Exact continuous-time Markov-chain functionals.

Rates are symmetric with zero diagonal, so every chain here is reversible
with uniform stationary law.  Transition matrices are computed by
uniformization (Poisson-weighted powers of the sparse jump kernel), which
preserves nonnegativity and has a computable truncation error.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, fsum

import numpy as np

from ._flat import check_grid
from .errors import (
    NotConnected,
    ParameterOutOfRange,
    TooLargeForExact,
    TotalUnitOnIrregular,
)
from .graphs import _TRANSITIVE, Graph, _connected, _entry_rows, make_transitive

__all__ = [
    "MarkovChain",
    "Spectrum",
    "build_generator",
    "product_chain",
    "translation_group",
    "transition_matrix",
    "spectrum",
    "poisson_weights",
    "uniformize",
]

_DENSE_CAP = 4096
# Poisson terms of one uniformization: lam * t up to about 4 * 10^6
_TERM_CAP = 1 << 22
# bytes of one transition_matrix column panel: an L2-sized dense operand
_PANEL_BYTES = 1 << 19
_EIG_ZERO = 1e-10


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Symmetric jump rates with zero diagonal, as read-only CSR arrays.

    ``csr`` is ``(indptr, indices, data)`` in ``Graph.csr``'s layout, with
    the positive rates r(x, y) as data; ``row_rates`` holds each r(x),
    the correctly rounded sum of its row.  convention is "per_edge_unit" (rate =
    edge multiplicity), "total_unit" (each row rescaled to total rate 1;
    regular graphs only), or "custom".
    """

    n: int
    csr: tuple
    convention: str = "per_edge_unit"
    family: tuple | None = None
    transitive: bool = False
    row_rates: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_family(self.family)
        n = self.n
        csr = tuple(np.asarray(a, dtype=t)
                    for a, t in zip(self.csr, (np.int32, np.int32, float)))
        indptr, cols, data = csr
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != cols.size
                or data.shape != cols.shape or np.any(np.diff(indptr) < 0)):
            raise ParameterOutOfRange("rate arrays do not describe an n x n matrix")
        rows = _entry_rows(indptr)
        # row-major keys (int64, as rows is) rise strictly when each row's
        # columns are sorted and unique
        key = rows * n + cols
        if np.any((cols < 0) | (cols >= n) | (rows == cols)) or np.any(np.diff(key) <= 0):
            raise ParameterOutOfRange(
                "rate columns must be in range, off the diagonal, sorted and unique")
        if not np.all(data > 0.0):
            raise ParameterOutOfRange("stored rates must be positive")
        # the transposed entries, sorted by (row, column), are the entries
        order = np.lexsort((rows, cols))
        if not (np.array_equal(cols[order], rows) and np.array_equal(rows[order], cols)
                and np.array_equal(data[order], data)):
            raise ParameterOutOfRange("rates must be exactly symmetric")
        if not _connected(n, rows, cols.astype(np.intp)):
            raise NotConnected("rate graph is not irreducible")
        # correctly rounded row sums, so six fl(1/6) make exactly 1
        ptr, vals = indptr.tolist(), data.tolist()
        row_rates = np.array([fsum(vals[a:b]) for a, b in zip(ptr, ptr[1:])], dtype=float)
        for a in (*csr, row_rates):
            a.setflags(write=False)
        object.__setattr__(self, "csr", csr)
        object.__setattr__(self, "row_rates", row_rates)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and rates of the stored entries, in row-major order."""
        return _entry_rows(self.csr[0]), *self.csr[1:]

    def row(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """The states y with r(x, y) > 0, in increasing order, and those rates."""
        indptr, cols, data = self.csr
        return cols[indptr[x]:indptr[x + 1]], data[indptr[x]:indptr[x + 1]]

    @property
    def r_max(self) -> float:
        return float(self.row_rates.max())

    @property
    def r_min(self) -> float:
        return float(self.row_rates.min())

    def generator(self) -> sp.csr_matrix:
        """Sparse generator Q, the rates off the diagonal and -r(x) on it: a
        copy of the one built on first use."""
        return self._generator.copy()

    @cached_property
    def _generator(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        # scipy takes the arrays as (data, indices, indptr)
        rates = sp.csr_matrix(self.csr[::-1], shape=(self.n, self.n))
        return rates - sp.diags(self.row_rates)

    @cached_property
    def _group(self):
        return _translation_group(self)

    @cached_property
    def _family_rates(self) -> bool:
        return _has_family_rates(self)

    def __getstate__(self):
        # the group's add and neg are closures, which do not pickle; an
        # unpickled chain finds its group again on first use
        return {k: v for k, v in self.__dict__.items() if k != "_group"}

    @classmethod
    def from_rates(cls, rates, transitive=False) -> "MarkovChain":
        """A "custom" chain from the nonzero entries of a dense rate matrix."""
        r = np.asarray(rates, dtype=float)
        if r.ndim != 2:
            raise ParameterOutOfRange("rate matrix shape mismatch")
        import scipy.sparse as sp

        m = sp.csr_matrix(r)
        # a matrix that is not square fails the offset count
        return cls(m.shape[1], (m.indptr, m.indices, m.data), "custom", transitive=transitive)


def _check_family(family) -> None:
    """A tag naming a family of ``graphs._TRANSITIVE`` carries that family's
    count of positive integer parameters, which ``translation_group`` and
    ``spectrum`` read; other tags are not read."""
    if not family or family[0] not in _TRANSITIVE:
        return
    params = family[1:]
    count = _TRANSITIVE[family[0]][1]
    if len(params) != count or not all(
            isinstance(p, numbers.Integral) and not isinstance(p, bool) and p > 0
            for p in params):
        raise ParameterOutOfRange(
            f"family {family!r}: {family[0]!r} takes {count} positive integer parameter(s)")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of -Q, sorted ascending; t_rel is the inverse gap."""

    eigenvalues: np.ndarray
    t_rel: float = field(init=False)

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))
        ev = np.where(ev < _EIG_ZERO, 0.0, ev)
        object.__setattr__(self, "eigenvalues", ev)
        if len(ev) < 2 or ev[1] <= 0.0:
            raise NotConnected("zero spectral gap: chain not irreducible")
        object.__setattr__(self, "t_rel", float(1.0 / ev[1]))

    def eigentime_sum(self) -> float:
        """Sum of inverse nonzero eigenvalues."""
        return float(np.sum(1.0 / self.eigenvalues[1:]))


def build_generator(g: Graph, convention: str = "per_edge_unit") -> MarkovChain:
    """Walk rates from a graph.

    per_edge_unit sets r_{x,y} to the edge multiplicity; total_unit rescales
    to unit total rate per vertex, which keeps the rates symmetric only on
    regular graphs.  A disconnected graph fails the chain's irreducibility
    check with NotConnected.
    """
    off, nbr, mult = g.csr
    rates = mult.astype(float)
    if convention == "total_unit":
        if not g.is_regular():
            raise TotalUnitOnIrregular(
                "total-unit rates on an irregular graph are not symmetric"
            )
        rates /= float(g.degrees[0])
    elif convention != "per_edge_unit":
        raise ParameterOutOfRange(f"unknown rate convention {convention!r}")
    return MarkovChain(g.n, (off, nbr, rates), convention, g.family, g.transitive)


def product_chain(c: MarkovChain) -> MarkovChain:
    """Two independent copies as one chain on pairs, state index x*n + y:
    the Kronecker sum of c's rates, which has no diagonal."""
    if c.n * c.n > _DENSE_CAP:
        raise TooLargeForExact("materialized product chain capped at 4096 states")
    import scipy.sparse as sp

    rates = sp.csr_matrix(c.csr[::-1], shape=(c.n, c.n))
    eye = sp.identity(c.n, format="csr")
    k = sp.kron(rates, eye, format="csr") + sp.kron(eye, rates, format="csr")
    return MarkovChain(c.n * c.n, (k.indptr, k.indices, k.data), "custom")


def translation_group(c: MarkovChain):
    """Vertex ids as an abelian group that translates c's rates, or None.

    The tagged families are Cayley graphs: Z_n for ``cycle`` and
    ``complete``, Z_L^d in the torus's lexicographic labels and Z_2^d on the
    hypercube's bit masks, with vertex 0 the identity.  Returns vectorized
    ``(add, neg)`` on integer arrays of vertex ids, but only when
    r(u, v) == r(0, v - u) for every pair; a chain with no tag,
    or with rates its tag does not describe, gets None.  Found once per
    chain object and kept with it, as its generator is.
    """
    return c._group


def _translation_group(c: MarkovChain):
    """``translation_group``, found afresh."""
    family = c.family
    if family is None:
        return None
    kind = family[0]
    if kind in ("cycle", "complete"):
        size = family[1]

        def add(a, b):
            return (a + b) % size

        def neg(a):
            return -a % size
    elif kind == "torus":
        L = family[2]
        size = L ** family[1]
        strides = L ** np.arange(family[1], dtype=np.int64)

        # digit-wise mod L: a // s is the digit at stride s plus L times
        # the higher digits, which vanish mod L
        def add(a, b):
            return sum((a // s + b // s) % L * s for s in strides)

        def neg(a):
            return sum(-(a // s) % L * s for s in strides)
    elif kind == "hypercube":
        size = 1 << family[1]
        add = np.bitwise_xor

        def neg(a):
            return a
    else:
        return None
    if c.n != size:
        return None
    # row u must be row 0 moved by u: as many entries, at u + g for every
    # g in the support of row 0, with row 0's rate at g
    gens, base = c.row(0)
    moved = add(np.arange(size, dtype=np.int64)[:, None], gens)
    order = np.argsort(moved, axis=1)
    same = (np.all(np.diff(c.csr[0]) == gens.size)
            and np.array_equal(np.take_along_axis(moved, order, axis=1).ravel(), c.csr[1])
            and np.array_equal(base[order].ravel(), c.csr[2]))
    return (add, neg) if same else None


def _check_tol(tol) -> None:
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < 1.0:
        raise ParameterOutOfRange(f"tol must be a number in (0, 1), got {tol!r}")


def poisson_weights(lam_t: float, tol: float) -> np.ndarray:
    """Poisson(lam_t) pmf from 0 through two past the (1 - tol) quantile.

    The quantile and the pmf are the ``scipy.special`` expressions that
    ``scipy.stats.poisson`` evaluates, so the weights are the same bits
    without the slow ``scipy.stats`` import.  Every uniformization takes
    its weights here, so ``tol`` is checked here: a number in (0, 1).  A
    lam_t that needs more than ``_TERM_CAP`` terms, or whose quantile is
    not a number (past about 10^12), is refused before any array is built.
    """
    _check_tol(tol)
    if lam_t <= 0.0:
        return np.array([1.0])
    from scipy.special import gammaln, pdtr, pdtrik, xlogy

    q = 1.0 - tol
    # smallest k with P(K <= k) >= q: the ceiling of the continuous inverse,
    # or the integer below it when that already reaches q
    k = np.ceil(pdtrik(q, lam_t))
    below = max(k - 1.0, 0.0)
    if pdtr(below, lam_t) >= q:
        k = below
    # a NaN quantile fails the comparison too
    if not k + 3 <= _TERM_CAP:
        raise TooLargeForExact(
            f"uniformization at lam*t = {lam_t:g} needs more than {_TERM_CAP} Poisson terms")
    ks = np.arange(int(k) + 3)
    return np.exp(xlogy(ks, lam_t) - gammaln(ks + 1) - lam_t)


def uniformize(step, x0, lam: float, times, tol: float = 1e-12):
    """Poisson-weighted powers sum_k Poisson(lam t)(k) step^k(x0) for each t.

    ``step`` applies one jump of the chain uniformized at rate ``lam`` to a
    state vector or matrix.  Returns the list of sums (one per time), the
    number of Poisson terms used and the largest Poisson tail mass dropped.
    """
    weights = [poisson_weights(lam * t, tol) for t in times]
    terms = max(len(w) for w in weights)
    acc = [w[0] * x0 for w in weights]
    x = x0
    for k in range(1, terms):
        x = step(x)
        for a, w in zip(acc, weights):
            if k < len(w):
                a += w[k] * x
    tail = max(0.0, max(1.0 - float(w.sum()) for w in weights))
    return acc, terms, tail


def _jump_kernel(q: sp.csr_matrix, lam: float) -> sp.csr_matrix:
    """I + Q / lam, the one-jump kernel of the generator q uniformized at
    rate lam, dividing each entry by lam: the one form every oracle uses."""
    kernel = q.copy()
    kernel.data /= lam
    kernel.setdiag(kernel.diagonal() + 1.0)
    return kernel


def transition_matrix(c: MarkovChain, t: float, tol: float = 1e-12) -> np.ndarray:
    """Time-t transition probabilities by uniformization.

    P_t is computed one column panel at a time: each panel starts from its
    columns of the identity and runs the same ``uniformize`` call.  A panel
    is at most ``_PANEL_BYTES`` (65 columns at n = 1000), so the dense
    operand of every sparse product stays in a core's L2 cache.  The panels
    run on a thread pool of ``min(panels, usable CPUs)`` threads (scipy's
    sparse product and numpy's array arithmetic release the GIL); a single
    panel (n <= 256) runs in the calling thread.  The sparse product treats
    every column alone, so the bits do not depend on the panel width or the
    number of threads.
    """
    if c.n > _DENSE_CAP:
        raise TooLargeForExact("dense transition matrix capped at 4096 states")
    [t] = check_grid([t], "t")
    # checked here too: the early return below makes no Poisson weights
    _check_tol(tol)
    lam = c.r_max
    if t == 0.0 or lam == 0.0:
        return np.eye(c.n)
    n = c.n
    kernel = _jump_kernel(c.generator(), lam)
    out = np.empty((n, n))
    width = max(1, _PANEL_BYTES // (8 * n))
    starts = range(0, n, width)

    def panel(a):
        b = min(a + width, n)
        x0 = np.zeros((n, b - a))
        x0[np.arange(a, b), np.arange(b - a)] = 1.0
        # the kernel is symmetric, so kernel @ p is the next power p @ kernel
        out[:, a:b] = uniformize(kernel.dot, x0, lam, [t], tol)[0][0]

    if len(starts) == 1:
        panel(0)
    else:
        workers = min(len(starts), len(os.sched_getaffinity(0)))
        with ThreadPoolExecutor(workers) as pool:
            # list() re-raises a panel's exception here
            list(pool.map(panel, starts))
    return out


def _closed_form_eigenvalues(family: tuple, convention: str) -> np.ndarray:
    """Spectra of -Q for the named transitive families under either
    convention."""
    kind = family[0]
    if kind == "cycle":
        n = family[1]
        ev = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
        deg = 2
    elif kind == "torus":
        d, L = family[1], family[2]
        line = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(L) / L)
        ev = np.zeros(1)
        for _ in range(d):
            ev = np.add.outer(ev, line).ravel()
        deg = 2 * d
    elif kind == "complete":
        n = family[1]
        ev = np.concatenate([[0.0], np.full(n - 1, float(n))])
        deg = n - 1
    else:  # hypercube
        d = family[1]
        ks = np.arange(d + 1)
        ev = np.repeat(2.0 * ks, [comb(d, k) for k in ks]).astype(float)
        deg = d
    if convention == "total_unit":
        ev = ev / deg
    return np.sort(ev)


def _has_family_rates(c: MarkovChain) -> bool:
    """Whether c's rates are those of its tagged family under its
    convention: a chain that its tag's group translates, with the CSR
    arrays of ``build_generator`` on the family's own graph.  Found once
    per chain object and kept with it (``MarkovChain._family_rates``)."""
    if translation_group(c) is None or c.convention == "custom":
        return False
    try:
        own = build_generator(make_transitive(*c.family), c.convention)
    except ParameterOutOfRange:
        # a tag the builders reject, such as a cycle of two vertices
        return False
    return all(np.array_equal(a, b) for a, b in zip(c.csr, own.csr))


def spectrum(c: MarkovChain) -> Spectrum:
    """Full eigenvalue list of -Q; closed forms when the rates are the
    tagged family's own (``_has_family_rates``, checked once per chain),
    dense symmetric factorization otherwise."""
    if c._family_rates:
        return Spectrum(eigenvalues=_closed_form_eigenvalues(c.family, c.convention))
    if c.n > _DENSE_CAP:
        raise TooLargeForExact("dense eigendecomposition capped at 4096 states")
    ev = np.linalg.eigvalsh(-c.generator().toarray())
    return Spectrum(eigenvalues=ev)


def _return_integral(c: MarkovChain):
    """Factory returning s -> integral of diag(p_u) du over [0, s], from one
    symmetric eigendecomposition of the densified generator."""
    lam, vecs = np.linalg.eigh(-c.generator().toarray())
    lam = np.where(lam < _EIG_ZERO, 0.0, lam)
    v2 = vecs**2

    def integral_to(s: float) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0.0, (1.0 - np.exp(-lam * s)) / lam, s)
        return v2 @ terms

    return integral_to

"""The lockstep coalescing-walk kernel and the scalar engine: their outputs
pinned by digest, a row-at-a-time reference replay of the kernel's
semantics, the runner's blocks equal on the two engines, and the
rng-taking calls equal to a one-row block."""

import hashlib

import numpy as np
import pytest
from conftest import KINDS, LOLLIPOP

from coalesce import crw, runner
from coalesce.crw import (
    EXPO,
    NBR,
    SLOT,
    THIN,
    _BlockDraws,
    _kind_streams,
    _lockstep_crw,
    estimate_density,
    flat_graph,
    sample_tau_coal,
    simulate_crw,
)
from coalesce.graphs import cycle_graph, torus_graph
from coalesce.runner import run_task
from coalesce.seeding import derive_rng
from coalesce.voter import sample_nhat_ancestral, simulate_voter

GRID = [0.1, 0.5, 1.5, 4.0]
# graphs for the scalar engines, with their convention: two regular ones,
# and the lollipop, which takes the thinning path
SCALAR_CASES = {
    "cycle9_total_unit": (cycle_graph(9), "total_unit"),
    "torus33": (torus_graph(3, 3), "per_edge_unit"),
    "lollipop": (LOLLIPOP, "per_edge_unit"),
}
# the rng-taking entry points: the scalar engine's on one row, and the
# density view
API_CALLS = ["density", "tracked_cluster", "occupancy", "sample_tau_coal",
             "estimate_density"]


def digest(out) -> str:
    """sha256 over an array, or over a kernel's output dict key by key."""
    h = hashlib.sha256()
    items = sorted(out.items()) if isinstance(out, dict) else [("", out)]
    for key, val in items:
        val = np.asarray(val)
        h.update(f"{key}:{val.dtype.str}:{val.shape}:".encode())
        h.update(np.ascontiguousarray(val).tobytes())
    return h.hexdigest()


def lollipop_call(mode: str) -> dict:
    """37 rows at width 64 on the lollipop in one of the kernel's modes."""
    flat = flat_graph(LOLLIPOP, "per_edge_unit")
    rng = derive_rng(41, "lockstep-pin", 0)
    rows, width = 37, 64
    if mode == "to_one":
        return _lockstep_crw(flat, _BlockDraws([rng], width), rows, [], to_one=True)
    labels = sites = None
    if mode == "labels":
        labels = rng.integers(0, LOLLIPOP.n, size=(rows, 3))
    else:
        sites = [0, 3, 4, 6]
    return _lockstep_crw(flat, _BlockDraws([rng], width), rows, GRID, labels, sites)


def api_call(case: str, call: str) -> dict:
    """20 trajectories of ``simulate_crw`` on one track, 30 draws of
    ``sample_tau_coal`` or one 30-replicate ``estimate_density``, all from
    one generator."""
    g, convention = SCALAR_CASES[case]
    rng = derive_rng(44, "scalar-api-pin", 0)
    if call == "estimate_density":
        return vars(estimate_density(g, GRID, 30, rng, convention))
    if call == "sample_tau_coal":
        return {"tau": [sample_tau_coal(g, rng, convention) for _ in range(30)]}
    return {f"{j}:{key}": val for j in range(20)
            for key, val in simulate_crw(g, GRID, rng, call, convention=convention).items()}


class TestPinnedDigests:
    """Outputs of the ancestral sampler, of the kernel in each mode and of
    the rng-taking entry points, as sha256 digests: a change to any draw,
    pick or state update shows here.  The runner's CSV digests in
    ``test_cli`` pin the block paths, ``TestOneLayout`` ties the runner's
    scalar blocks to them, and ``TestOneRow`` the one-row calls."""

    ANCESTRAL = {
        "torus36": "49fe0284928a85bb34524c311bca7efcf39bf57b26fd36181c3970293678162b",
        "lollipop": "224d38f17db5b70cf64a8e01faa4007e0538f39380755a4c111891e0ab3f26c9",
    }
    KERNEL = {
        "labels": "4a57f82dbda73966c6795812e77be4ce0b4fcc4d24fe5def09f87b7ef8e00879",
        "sites": "b4ea7118aa2a1527bd39e2579a74dc94032f07910ed72505c675a089b1c727f8",
        "to_one": "6ec81e2eec3b4b4cebf4985e610c8be178e0c8a228b7d51911c724da5246cd0e",
    }

    # the rng-taking entry points, as ``api_call`` runs them
    API = {
        "cycle9_total_unit": {
            "density": "01ea98793823f01ce38cece956992f3b17ec898559e3ebea3470cb811c428a01",
            "tracked_cluster": "7bfc3a86cc4b91a73c2f9200e7baa09ffebfcc51a1c2600208a0f9481687532c",
            "occupancy": "ed04ec77d63fc9b12451941d8970b3c50ab03697bcb6bc916c95e3f8a70f298b",
            "sample_tau_coal": "e5fbbe6cf2fa91d5f0b9747ee232ba00b5f42df0097c1e2b1d07e83ac35955f6",
            "estimate_density": "f5aa965b5875da5d1fc9640a6f91b11551bdf877d63e97d52abdc632eea79cd5",
        },
        "lollipop": {
            "density": "8772bca05732321bcfeff43e74809996f297781b78c4b8c3e3a5249d9e397e64",
            "tracked_cluster": "10aa9b114be2d8f9a606bf5650a28d5e4c81cfe061b6c377b9cfbc54090048ca",
            "occupancy": "9b0387965663600523510bacd1ddc4908bf2b29aac57a7ca8661bf6e139b4c35",
            "sample_tau_coal": "7f463bc59545267cb3ce23bb126a8dc9cb2d0a29895806994350715011c43a34",
            "estimate_density": "e73182f151ae527ff40e340455a1001aa03ab570c53b9398e666ea57fddc2b72",
        },
    }

    @pytest.mark.parametrize("case", ["torus36", "lollipop"])
    def test_ancestral_sampler(self, case):
        g, t = (torus_graph(3, 6), 2.0) if case == "torus36" else (LOLLIPOP, 0.8)
        out = sample_nhat_ancestral(g, t, 300, derive_rng(40, "anc-pin", 0),
                                    draws_per_trajectory=2)
        assert digest(out) == self.ANCESTRAL[case]

    @pytest.mark.parametrize("mode", ["labels", "sites", "to_one"])
    def test_kernel_on_lollipop(self, mode):
        assert digest(lollipop_call(mode)) == self.KERNEL[mode]

    @pytest.mark.parametrize("call", API_CALLS)
    @pytest.mark.parametrize("case", list(API))
    def test_scalar_api(self, case, call):
        assert digest(api_call(case, call)) == self.API[case][call]


class _Stream:
    """A block's draws in the kernel's layout, made lazily: iteration k
    takes one width-wide exponential and one width-wide uniform of each of
    ``kinds`` kinds (slot, neighbour, thinning), each kind from its own
    stream of ``_kind_streams``."""

    def __init__(self, rng, width, kinds):
        streams = _kind_streams(rng)
        self.expo, self.kinds = streams[EXPO], [streams[k] for k in (SLOT, NBR, THIN)[:kinds]]
        self.width = width
        self.e, self.u = [], []

    def at(self, k):
        while len(self.e) <= k:
            self.e.append(self.expo(self.width))
            self.u.append(np.array([draw(self.width) for draw in self.kinds]))
        return self.e[k], self.u[k]


def replay(flat, rngs, rows, grid, labels=None, sites=None, to_one=False, width=None):
    """``_lockstep_crw`` one row at a time over lists.

    Slot i holds one cluster, at site loc[i] with size[i]; at_site maps a
    site back to its slot.  Row k * width + r takes entry r of every draw
    of block k, from the kind streams of ``rngs[k]``.  A ring picks a uniform slot, its site x
    and a neighbour y of x; on an irregular graph it is kept with
    probability rate(x) / r_max.  If y is occupied the cluster at x joins
    it, and the last slot fills the hole; each label follows its cluster's
    slot.  A row with no ring left that changes what it records stops its
    clock.
    """
    width = rows if width is None else width
    n, r_max = flat.n, flat.r_max
    streams = [_Stream(rng, width, 2 if flat.regular else 3) for rng in rngs]
    ngrid = 0 if to_one else len(grid)
    frozen_at_one = sites is None and not to_one
    out = {"xi": np.empty((rows, ngrid), dtype=np.int64)}
    if labels is not None:
        out["sizes"] = np.empty((rows, ngrid, labels.shape[1]), dtype=np.int64)
    if sites is not None:
        out["occ"] = np.empty((rows, ngrid, len(sites)), dtype=bool)
    if to_one:
        out["tau"] = np.zeros(rows)
    rings = rejected = 0
    for row in range(rows if to_one or ngrid else 0):
        stream, r = streams[row // width], row % width
        m, loc, at_site, size = n, list(range(n)), list(range(n)), [1] * n
        track = [] if labels is None else [int(v) for v in labels[row]]
        clock, g, k = 0.0, 0, 0
        while True:
            e, u = stream.at(k)
            t_next = clock + e[r] / (r_max * m) if r_max > 0.0 else float("inf")
            while g < ngrid and grid[g] < t_next:
                out["xi"][row, g] = m
                if track:
                    out["sizes"][row, g] = [size[i] for i in track]
                if sites is not None:
                    out["occ"][row, g] = [at_site[v] >= 0 for v in sites]
                g += 1
            if (m == 1) if to_one else (g == ngrid):
                if to_one:
                    out["tau"][row] = clock
                break
            clock = t_next
            k += 1
            rings += 1
            i = int(u[0, r] * m)
            x = loc[i]
            if not flat.regular and not u[2, r] < flat.rate[x] / r_max:
                rejected += 1
                continue
            y = flat.nbr[flat.off[x] + int(u[1, r] * flat.deg[x])]
            j = at_site[y]
            at_site[x] = -1
            if j < 0:
                loc[i], at_site[y] = y, i
                continue
            size[j] += size[i]
            m -= 1
            track = [j if s == i else s for s in track]
            if i != m:
                loc[i], size[i] = loc[m], size[m]
                at_site[loc[i]] = i
                track = [i if s == m else s for s in track]
            if frozen_at_one and m == 1:
                clock = float("inf")
    out["events"] = rings - rejected
    out["thinning_rejections"] = rejected
    return out


class TestReferenceReplay:
    """The kernel equals its row-at-a-time replay in every mode, on one
    block and on a pass of three blocks, the last one short."""

    GRAPHS = pytest.mark.parametrize("g", [cycle_graph(8), torus_graph(3, 3), LOLLIPOP],
                                     ids=["cycle8", "torus33", "lollipop"])
    MODES = pytest.mark.parametrize("mode", ["xi", "labels", "sites", "to_one"])

    @staticmethod
    def compare(g, mode, rows, width, blocks):
        flat = flat_graph(g, "per_edge_unit")
        labels = sites = None
        if mode == "labels":
            labels = derive_rng(42, "replay-labels", 0).integers(0, g.n, size=(rows, 3))
        elif mode == "sites":
            sites = [0, g.n // 2, g.n - 1]
        args = ([], None, None, True) if mode == "to_one" else (GRID, labels, sites, False)

        def rngs():
            return [derive_rng(42, "replay", k) for k in range(blocks)]

        gens = rngs()
        got = _lockstep_crw(flat, _BlockDraws(gens, width), rows, *args)
        ref = replay(flat, rngs(), rows, *args, width=width)
        assert got.keys() == ref.keys()
        for key in ref:
            np.testing.assert_array_equal(got[key], ref[key], err_msg=key)
        assert ref["events"] > 0
        if g is LOLLIPOP:
            assert ref["thinning_rejections"] > 0
        # each block alone gives its rows and counters, and leaves its
        # generator where the pass did: it draws only its kinds' seeds
        counts = {"events": 0, "thinning_rejections": 0}
        for k, gen in enumerate(gens):
            part = slice(k * width, min(k * width + width, rows))
            alone = derive_rng(42, "replay", k)
            block_args = args if labels is None else (GRID, labels[part], sites, False)
            one = _lockstep_crw(flat, _BlockDraws([alone], width), part.stop - part.start,
                                *block_args)
            for key in one:
                if key in counts:
                    counts[key] += one[key]
                else:
                    np.testing.assert_array_equal(got[key][part], one[key], err_msg=key)
            assert alone.bit_generator.state == gen.bit_generator.state
        assert counts == {key: got[key] for key in counts}

    @GRAPHS
    @MODES
    def test_kernel_equals_replay(self, g, mode):
        self.compare(g, mode, 25, 40, 1)

    @GRAPHS
    @MODES
    def test_pass_equals_replay(self, g, mode):
        # blocks of 12, 12 and 6 rows, each on its own generator
        self.compare(g, mode, 30, 12, 3)


class TestGroupedPass:
    """The runner runs a chunk's blocks as one pass, one generator per
    block: each block's values and counters are those of the block run
    alone."""

    @staticmethod
    def spied_chunk(monkeypatch, g, convention, task, grid, reps):
        """``_chunk_worker`` on the first three blocks of a
        ``reps``-replicate task, with the blocks of each ``_pass`` call it
        makes."""
        args = runner._task_chunks(g, convention, task, grid, reps, 45, 1)[3][0]
        args = args[:-2] + (0, 3)
        run_pass, passes = runner._pass, []

        def spy(flat, task, grid, rngs, count, width):
            passes.append(len(rngs))
            return run_pass(flat, task, grid, rngs, count, width)

        monkeypatch.setattr(runner, "_pass", spy)
        return args, runner._chunk_worker(args), passes

    @pytest.mark.parametrize("path", ["lockstep", "scalar"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case", list(SCALAR_CASES))
    def test_chunk_equals_blocks(self, case, kind, path, monkeypatch):
        # 16-row blocks: 40 replicates are blocks of 16, 16 and 8 rows
        monkeypatch.setattr(runner, "_BLOCK_CAP", 16)
        floor = 16 if path == "lockstep" else 17
        monkeypatch.setattr(runner, "_SCALAR_BELOW", dict.fromkeys(KINDS, floor))
        run_pass = runner._pass
        g, convention = SCALAR_CASES[case]
        args, (blocks, tally), passes = self.spied_chunk(
            monkeypatch, g, convention, {"task": kind}, GRID, 40)
        assert passes == [3]
        flat, task, grid, label, seed = args[:5]
        ref = {"events": 0, "thinning_rejections": 0, "blocks": 3}
        assert [start for start, _ in blocks] == [0, 16, 32]
        for k, (_, got) in enumerate(blocks):
            vals, rec = run_pass(flat, task, grid, [derive_rng(seed, label, k)],
                                 8 if k == 2 else 16, 16)
            np.testing.assert_array_equal(got, vals)
            ref["events"] += rec["events"]
            ref["thinning_rejections"] += rec["thinning_rejections"]
        assert tally == ref and ref["events"] > 0
        if case == "lollipop" and kind != "nhat":
            # the voter plays every ring; the walks thin on the lollipop
            assert ref["thinning_rejections"] > 0

    @pytest.mark.parametrize("n, passes", [(256, [2, 1]), (512, [1, 1, 1])])
    def test_pass_holds_block_cells(self, n, passes, monkeypatch):
        # a pass holds at most _PASS_BYTES per state array: at 1 MB, 2^19
        # 16-bit cells, one 1024-row block from 512 vertices
        monkeypatch.setattr(runner, "_PASS_BYTES", 1 << 20)
        width = runner.block_rows(n)
        assert width == 1024
        _, (blocks, tally), got = self.spied_chunk(
            monkeypatch, cycle_graph(n), "per_edge_unit", {"task": "density"}, [0.05],
            3 * width)
        assert got == passes and tally["blocks"] == 3
        assert [start for start, _ in blocks] == [0, width, 2 * width]


# the cases of TestOneLayout: graph, convention, grid and block width
ONE_LAYOUT = {
    **{case: (g, convention, GRID, 16) for case, (g, convention) in SCALAR_CASES.items()},
    # past 2^15 vertices the runner's blocks are 13 rows wide
    "cycle40000": (cycle_graph(40_000), "per_edge_unit", [0.01, 0.02],
                   runner.block_rows(40_000)),
}


class TestOneLayout:
    """The scalar and lockstep engines read a block's variates in one
    layout, so ``_pass`` gives equal values and counters on either, for
    every task and for ``tracked_cluster`` with several labels: on a pass
    of three blocks, the last one short, with the scalar rows interleaved
    in windows longer than any row and in windows of three rings.
    Coalescence on cycle(40000) takes of order n^2 time, so that graph runs
    the four grid tasks."""

    @staticmethod
    def compare(case, task, window, monkeypatch):
        """``_pass``'s values on the scalar engine, checked equal to the
        lockstep engine's, values and counters."""
        g, convention, grid, width = ONE_LAYOUT[case]
        if window == "short":
            monkeypatch.setattr(crw, "_WINDOW_CELLS", 3 * width)
        flat = flat_graph(g, convention)
        rows = 2 * width + 4
        out = {}
        for path, floor in (("scalar", 1 << 20), ("lockstep", 0)):
            monkeypatch.setattr(runner, "_SCALAR_BELOW", dict.fromkeys(KINDS, floor))
            rngs = [derive_rng(46, "one-layout", k) for k in range(3)]
            out[path] = runner._pass(flat, task, grid, rngs, rows, width)
        (vals, rec), (ref, ref_rec) = out["scalar"], out["lockstep"]
        assert vals.shape[0] == rows
        np.testing.assert_array_equal(vals, ref)
        for key in ("events", "thinning_rejections"):
            assert rec[key] == ref_rec[key], key
        assert rec["events"] > 0
        if g is LOLLIPOP and task["task"] != "nhat":
            assert rec["thinning_rejections"] > 0
        return vals

    @pytest.mark.parametrize("window", ["long", "short"])
    @pytest.mark.parametrize("case, kind", [
        (case, kind) for case in ONE_LAYOUT for kind in KINDS
        if (case, kind) != ("cycle40000", "tau_coal")])
    def test_scalar_equals_lockstep(self, case, kind, window, monkeypatch):
        self.compare(case, {"task": kind}, window, monkeypatch)

    @pytest.mark.parametrize("labels", [3, 4])
    @pytest.mark.parametrize("case", list(SCALAR_CASES))
    def test_tracked_labels(self, case, labels, monkeypatch):
        # in windows of three rings, four labels read two windows of
        # leading uniforms before the first ring
        task = {"task": "tracked_cluster", "labels": labels}
        vals = self.compare(case, task, "short", monkeypatch)
        assert vals.shape[1:] == (len(GRID), 1 + labels)


class TestOneRow:
    """``simulate_crw`` (every track), ``sample_tau_coal`` and
    ``simulate_voter`` read row 0 of a one-row block drawing from the
    caller's generator: each call's values and counters equal ``_pass`` on
    ``[rng]`` at width 1, on either engine, and leave the generator where
    the pass does."""

    @staticmethod
    def call(g, convention, kind, rng):
        """The call's values in ``_pass``'s columns for one replicate, and
        its counters where it returns them."""
        if kind == "tau_coal":
            return np.array([sample_tau_coal(g, rng, convention)]), {}
        if kind == "nhat":
            out = simulate_voter(g, GRID, rng, convention)
            cols = [out["nhat"], out["n_0"]]
        else:
            out = simulate_crw(g, GRID, rng, kind, convention=convention)
            cols = [out["xi_size"], *(out[k] for k in ("N", "occ") if k in out)]
        counts = {k: out[k] for k in ("events", "thinning_rejections")}
        return np.column_stack(cols)[None], counts

    @pytest.mark.parametrize("path", ["scalar", "lockstep"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("case", list(SCALAR_CASES))
    def test_call_equals_one_row_pass(self, case, kind, path, monkeypatch):
        g, convention = SCALAR_CASES[case]
        monkeypatch.setattr(runner, "_SCALAR_BELOW",
                            dict.fromkeys(KINDS, 1 << 20 if path == "scalar" else 0))
        flat = flat_graph(g, convention)
        grid = [] if kind == "tau_coal" else GRID
        for seed in range(5):
            rng, ref_rng = (derive_rng(47, "one-row", seed) for _ in range(2))
            vals, counts = self.call(g, convention, kind, rng)
            ref, rec = runner._pass(flat, {"task": kind}, grid, [ref_rng], 1, 1)
            np.testing.assert_array_equal(vals, ref)
            for key, val in counts.items():
                assert val == rec[key], key
            assert rng.bit_generator.state == ref_rng.bit_generator.state

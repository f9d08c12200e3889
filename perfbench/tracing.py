"""Spans and counters around calls into coalesce's public functions.

Used only by the traced run (``--trace 1``).  ``Tracer.install`` replaces
every binding of a listed function in the loaded ``coalesce`` modules with a
timing wrapper, so calls the package makes to its own public functions
(runner -> ``crw.simulate_crw``, ``io.write_csv``, ``seeding.derive_rng``)
are recorded too.  Spans stay in memory; ``write_spans`` stores them when the
run ends.  ``BufferedDraws`` is swapped for a subclass that counts variates
drawn from the generator and variates left unused when a buffer dies, which
adds no cost per variate.
"""

from __future__ import annotations

import gc
import gzip
import sys
import time
from collections import Counter

# layers, in report order; a span's layer is the prefix of its name
LAYERS = (
    "graphs", "crw", "voter", "meeting", "chains", "theory",
    "runner", "seeding", "io", "verify", "bench",
)
TASK_KINDS = ("density", "tracked_cluster", "occupancy", "nhat", "tau_coal")


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _events(counts, args, kwargs, result):
    counts["crw.events"] += int(result["events"])


def _trajectories(counts, args, kwargs, result):
    counts["voter.trajectories"] += int(_arg(args, kwargs, 2, "trajectories"))


def _pairwise(counts, args, kwargs, result):
    n = result.pairwise.shape[0]
    counts["meeting.pair_unknowns"] += n * (n - 1)
    counts["meeting.solve_residual"] = max(
        counts["meeting.solve_residual"], float(result.residual)
    )


def _censored(counts, args, kwargs, result):
    counts["meeting.mc_pair_censored"] += int(result["censored"])


def _terms(counts, args, kwargs, result):
    counts["chains.uniformization_terms"] += len(result)


def _streams(counts, args, kwargs, result):
    counts["seeding.streams"] += 1


def _rows(counts, args, kwargs, result):
    counts["io.rows"] += len(_arg(args, kwargs, 2, "rows"))


def _alpha_name(args, kwargs):
    return "meeting.alpha_" + str(_arg(args, kwargs, 3, "mode", "exact"))


def _task_name(args, kwargs):
    return "runner.task." + _arg(args, kwargs, 2, "task")["task"]


# (module, function, span name or None for a counter only, counter)
WRAPPED = (
    ("graphs", "cycle_graph", "graphs.build", None),
    ("graphs", "torus_graph", "graphs.build", None),
    ("graphs", "complete_graph", "graphs.build", None),
    ("graphs", "path_graph", "graphs.build", None),
    ("graphs", "hypercube_graph", "graphs.build", None),
    ("graphs", "make_transitive", "graphs.build", None),
    ("graphs", "sample_configuration_model", "graphs.build", None),
    ("crw", "flat_graph", "crw.flat_graph", None),
    ("crw", "simulate_crw", "crw.simulate", _events),
    ("crw", "sample_tau_coal", "crw.tau_coal", None),
    ("crw", "exact_occupancy_density", "crw.subset_oracle", None),
    ("crw", "exact_k_particle_law", "crw.kparticle_oracle", None),
    ("voter", "sample_nhat_ancestral", "voter.ancestral", _trajectories),
    ("voter", "simulate_voter", "voter.forward", None),
    ("meeting", "pairwise_meeting_times", "meeting.pairwise", _pairwise),
    ("meeting", "alpha_survival", _alpha_name, None),
    ("meeting", "mc_pair_meeting", "meeting.mc_pair", _censored),
    ("chains", "spectrum", "chains.spectrum", None),
    ("chains", "transition_matrix", "chains.transition", None),
    ("chains", "poisson_weights", None, _terms),
    ("theory", "estimate_psi_d", "theory.psi", None),
    ("theory", "estimate_alpha_D", "theory.alpha_D", None),
    ("runner", "run_experiment", "runner.experiment", None),
    ("runner", "run_task", _task_name, None),
    ("seeding", "derive_rng", "seeding.derive_rng", _streams),
    ("io", "write_csv", "io.write_csv", _rows),
    ("verify", "exact_suite", "verify.suite", None),
)


class _CountingGen:
    """Generator stand-in that counts the variates BufferedDraws pulls."""

    __slots__ = ("_gen", "_counts")

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def standard_exponential(self, size):
        self._counts["seeding.variates_drawn"] += size
        return self._gen.standard_exponential(size)

    def random(self, size):
        self._counts["seeding.variates_drawn"] += size
        return self._gen.random(size)


def _counting_draws(base, counts):
    class CountingDraws(base):
        __slots__ = ()

        def __init__(self, gen, block=16384):
            super().__init__(_CountingGen(gen, counts), block)

        def __del__(self):
            counts["seeding.variates_unused"] += 2 * self._block - self._ie - self._iu

    return CountingDraws


class Tracer:
    """Span recorder; spans are [parent index, name, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(counts, args, kwargs, result)
                return result

            return counted

        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else -1,
                   name(args, kwargs) if callable(name) else name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self.wrap(fn, name, None)(*args, **kwargs)

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "coalesce" or k.startswith("coalesce."))]
        seeding = sys.modules["coalesce.seeding"]
        replace = [(seeding.BufferedDraws,
                    _counting_draws(seeding.BufferedDraws, self.counts))]
        for mod, fname, name, counter in WRAPPED:
            orig = getattr(sys.modules["coalesce." + mod], fname)
            replace.append((orig, self.wrap(orig, name, counter)))
        for orig, new in replace:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, new)
                        self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()
        gc.collect()  # settle the unused-variate counts of dead buffers

    def self_times(self) -> Counter:
        """Self time per span name: duration minus time covered by children."""
        own = Counter()
        for parent, name, start, end in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][1]] -= end - start
        return own

    def totals(self) -> Counter:
        """Inclusive time per span name, nested same-name spans counted once."""
        out = Counter()
        for parent, name, start, end in self.spans:
            if parent < 0 or self.spans[parent][1] != name:
                out[name] += end - start
        return out

    def write_spans(self, path):
        """Spans as gzip CSV: id, parent, name, start and end in seconds."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


# every per-layer metric: name -> (unit, better)
PER_LAYER = {
    **{k: ("s", "lower") for k in (
        "graphs.build_s", "crw.flat_graph_s", "crw.simulate_s", "crw.tau_coal_s",
        "crw.subset_oracle_s", "crw.kparticle_oracle_s", "voter.ancestral_s",
        "voter.forward_s", "meeting.pairwise_s", "meeting.alpha_exact_s",
        "meeting.alpha_mc_s", "meeting.mc_pair_s", "chains.spectrum_s",
        "chains.transition_s", "theory.psi_s", "theory.alpha_D_s",
        "seeding.derive_rng_s", "io.write_csv_s", "verify.suite_s",
        *(f"runner.task_s.{k}" for k in TASK_KINDS),
        *(f"self_s.{layer}" for layer in LAYERS),
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    )},
    **{k: ("count", "lower") for k in (
        "crw.events", "meeting.pair_unknowns", "meeting.mc_pair_censored",
        "chains.uniformization_terms", "seeding.streams", "seeding.variates_drawn",
        "seeding.variates_used", "trace.spans",
    )},
    "io.rows": ("count", "higher"),
    "crw.events_per_s": ("1/s", "higher"),
    "voter.trajectories_per_s": ("1/s", "higher"),
    "io.rows_per_s": ("1/s", "higher"),
    "seeding.used_frac": ("ratio", "higher"),
    "meeting.solve_residual": ("1", "lower"),
}


def _rate(count, seconds):
    return count / seconds if seconds > 0.0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer numbers of one traced repetition, as name -> value."""
    own = tracer.self_times()
    incl = tracer.totals()
    c = tracer.counts
    drawn = c["seeding.variates_drawn"]
    used = drawn - c["seeding.variates_unused"]
    m = {
        "graphs.build_s": own["graphs.build"],
        "crw.flat_graph_s": own["crw.flat_graph"],
        "crw.simulate_s": own["crw.simulate"],
        "crw.events": c["crw.events"],
        "crw.events_per_s": _rate(c["crw.events"], own["crw.simulate"]),
        "crw.tau_coal_s": own["crw.tau_coal"],
        "crw.subset_oracle_s": own["crw.subset_oracle"],
        "crw.kparticle_oracle_s": own["crw.kparticle_oracle"],
        "voter.ancestral_s": own["voter.ancestral"],
        "voter.trajectories_per_s": _rate(c["voter.trajectories"], own["voter.ancestral"]),
        "voter.forward_s": own["voter.forward"],
        "meeting.pairwise_s": own["meeting.pairwise"],
        "meeting.pair_unknowns": c["meeting.pair_unknowns"],
        "meeting.solve_residual": c["meeting.solve_residual"],
        "meeting.alpha_exact_s": own["meeting.alpha_exact"],
        "meeting.alpha_mc_s": own["meeting.alpha_mc"],
        "meeting.mc_pair_s": own["meeting.mc_pair"],
        "meeting.mc_pair_censored": c["meeting.mc_pair_censored"],
        "chains.spectrum_s": own["chains.spectrum"],
        "chains.transition_s": own["chains.transition"],
        "chains.uniformization_terms": c["chains.uniformization_terms"],
        "theory.psi_s": own["theory.psi"],
        "theory.alpha_D_s": own["theory.alpha_D"],
        "seeding.derive_rng_s": own["seeding.derive_rng"],
        "seeding.streams": c["seeding.streams"],
        "seeding.variates_drawn": drawn,
        "seeding.variates_used": used,
        "seeding.used_frac": used / drawn if drawn else 0.0,
        "io.write_csv_s": own["io.write_csv"],
        "io.rows": c["io.rows"],
        "io.rows_per_s": _rate(c["io.rows"], own["io.write_csv"]),
        "verify.suite_s": incl["verify.suite"],
    }
    for kind in TASK_KINDS:
        m[f"runner.task_s.{kind}"] = incl["runner.task." + kind]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    m["trace.spans"] = len(tracer.spans)
    return m

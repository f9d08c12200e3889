import hashlib
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from conftest import KINDS, LOLLIPOP, stubbed_paper_suite

import coalesce
from coalesce import cli, runner, verify
from coalesce.cli import main
from coalesce.config import load_config, validate_config
from coalesce.errors import ConfigError, NotConnected, ParameterOutOfRange, TaskError
from coalesce.graphs import Graph, cycle_graph, write_graph
from coalesce.io import block_csv, format_cell, rows_to_csv
from coalesce.runner import run_experiment, run_task
from coalesce.theory import alpha_regular_tree, exact_density_1d
from coalesce.verify import statistical_suite


@pytest.fixture
def pools(monkeypatch):
    """Counts the process pools the runner opens."""
    made = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Counted)
    return made


def minimal_config(out_dir, tasks=None):
    return {
        "schema": 1,
        "graph": {"family": "cycle", "params": [8]},
        "rate_convention": "per_edge_unit",
        "times": [0.5, 1.0],
        "replicates": 40,
        "master_seed": 7,
        "outputs": str(out_dir),
        "tasks": tasks or [{"task": "density"}],
    }


class TestConfigValidation:
    def test_missing_graph_names_field(self, tmp_path):
        cfg = minimal_config(tmp_path)
        del cfg["graph"]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "graph" in str(err.value)

    def test_unknown_field_rejected(self, tmp_path):
        cfg = minimal_config(tmp_path)
        cfg["replicas"] = 3
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "replicas" in str(err.value)

    def test_unknown_task_field_has_path(self, tmp_path):
        cfg = minimal_config(tmp_path, tasks=[{"task": "density", "bogus": 1}])
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "tasks[0]" in str(err.value)

    def test_tracked_label_count_is_not_a_field(self, tmp_path):
        # runner._pass reads "labels" for the ancestral sampler alone
        cfg = minimal_config(tmp_path, tasks=[{"task": "tracked_cluster", "labels": 2}])
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "tasks[0].labels"

    def test_unsorted_times_rejected(self, tmp_path):
        cfg = minimal_config(tmp_path)
        cfg["times"] = [1.0, 0.5]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("times", [[True], [float("nan")], [0.5, float("inf")]])
    def test_bad_times_name_field(self, tmp_path, times):
        cfg = minimal_config(tmp_path)
        cfg["times"] = times
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "times"
        cfg = minimal_config(tmp_path, tasks=[{"task": "occupancy", "times": times}])
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "tasks[0].times"

    def test_float_graph_param_names_field(self, tmp_path):
        cfg = minimal_config(tmp_path)
        cfg["graph"]["params"] = [8.5]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "graph.params[0]"

    @pytest.mark.parametrize("site", [99, -1])
    def test_site_out_of_range_names_field(self, tmp_path, site):
        cfg = validate_config(
            minimal_config(tmp_path, tasks=[{"task": "occupancy", "sites": [0, site]}])
        )
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg)
        assert err.value.path == "tasks[0].sites[1]"

    def test_repeated_site_names_field(self, tmp_path, capsys):
        # a repeat used to write the header replicate,t,xi_size,occ_1,occ_1
        cfg = minimal_config(tmp_path, tasks=[{"task": "occupancy", "sites": [0, 3, 0]}])
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "tasks[0].sites[2]"
        out = tmp_path / "sim"
        assert main(["simulate", "--task", "occupancy", "--family", "cycle", "--params", "8",
                     "--sites", "1,1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: tasks[0].sites[1]: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("degrees,path", [
        ([[3]], "graph.cm.degrees[0]"),
        ([[3, 0.5], ["a", 0.5]], "graph.cm.degrees[1]"),
        ([[3, 0.5], [4, "x"]], "graph.cm.degrees[1]"),
        ([3], "graph.cm.degrees[0]"),
        ([[3.5, 1.0]], "graph.cm.degrees[0]"),
        ([[3, 0.5]], "graph.cm.degrees"),
        ([[3, 0.5], [4, 0.75]], "graph.cm.degrees"),
        ([], "graph.cm.degrees"),
    ])
    def test_bad_cm_degrees_name_field(self, tmp_path, degrees, path):
        cfg = minimal_config(tmp_path)
        cfg["graph"] = {"cm": {"degrees": degrees, "n": 20}}
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == path

    @pytest.mark.parametrize("params", [[3], [3, 4, 5]])
    def test_family_parameter_count(self, tmp_path, params):
        cfg = minimal_config(tmp_path)
        cfg["graph"] = {"family": "torus", "params": params}
        with pytest.raises(ParameterOutOfRange, match="'torus' takes 2 parameter"):
            run_experiment(validate_config(cfg))

    def test_bad_schema_version(self, tmp_path):
        cfg = minimal_config(tmp_path)
        cfg["schema"] = 2
        with pytest.raises(ConfigError):
            validate_config(cfg)


class TestRunExperiment:
    def test_density_csv_layout(self, tmp_path):
        cfg = validate_config(minimal_config(tmp_path / "out"))
        manifest = run_experiment(cfg)
        path = tmp_path / "out" / "00_density.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "replicate,t,xi_size"
        # replicate-major, time-minor ordering
        assert lines[1].startswith("0,0.5,") and lines[2].startswith("0,1,")
        assert len(lines) == 1 + 40 * 2
        assert manifest["results"][0]["rows"] == 80

    def test_same_seed_identical(self, tmp_path):
        cfg1 = validate_config(minimal_config(tmp_path / "a"))
        cfg2 = validate_config(minimal_config(tmp_path / "b"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        a = (tmp_path / "a" / "00_density.csv").read_bytes()
        b = (tmp_path / "b" / "00_density.csv").read_bytes()
        assert a == b

    def test_threads_do_not_change_rows(self, tmp_path):
        # 20 blocks of 1024 rows: 4 chunks at two threads, 5 at three, so
        # at three the first group of chunks is short
        data = {}
        for threads in (1, 2, 3):
            raw = minimal_config(tmp_path / f"t{threads}")
            raw["replicates"] = 20000
            run_experiment(validate_config(raw), threads=threads)
            data[threads] = (tmp_path / f"t{threads}" / "00_density.csv").read_bytes()
        assert data[1] == data[2] == data[3]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_threads_count_the_calling_process(self, tmp_path, monkeypatch, threads):
        # --threads N runs on this process and N - 1 pool workers
        run_pass = runner._pass
        here = os.getpid()
        children = []

        def counting(*args):
            if os.getpid() == here:
                children.append(len(multiprocessing.active_children()))
            return run_pass(*args)

        monkeypatch.setattr(runner, "_pass", counting)
        raw = minimal_config(tmp_path)
        raw["replicates"] = 20000
        run_experiment(validate_config(raw), threads=threads)
        assert children and set(children) == {threads - 1}
        assert multiprocessing.active_children() == []

    def test_manifest_reruns_identically(self, tmp_path):
        cfg = validate_config(minimal_config(tmp_path / "orig"))
        run_experiment(cfg)
        manifest_path = tmp_path / "orig" / "manifest.json"
        rerun_cfg = load_config(manifest_path)
        rerun_cfg.outputs = str(tmp_path / "rerun")
        run_experiment(rerun_cfg)
        assert (tmp_path / "orig" / "00_density.csv").read_bytes() == (
            tmp_path / "rerun" / "00_density.csv"
        ).read_bytes()

    def test_manifest_records_threads(self, tmp_path):
        manifest = run_experiment(validate_config(minimal_config(tmp_path / "m")), threads=2)
        on_disk = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["threads"] == on_disk["threads"] == 2
        rerun_cfg = load_config(tmp_path / "m" / "manifest.json")
        rerun = run_experiment(rerun_cfg, threads=1, out_dir=tmp_path / "rerun")
        assert (tmp_path / "m" / "00_density.csv").read_bytes() == (
            tmp_path / "rerun" / "00_density.csv"
        ).read_bytes()
        assert rerun["threads"] == 1
        for a, b in zip(manifest["results"], rerun["results"]):
            del a["wall_time_s"], b["wall_time_s"]
        del manifest["threads"], rerun["threads"]
        assert manifest == rerun

    def test_extending_replicates_keeps_prefix(self, tmp_path):
        base = minimal_config(tmp_path / "p1")
        more = minimal_config(tmp_path / "p2")
        more["replicates"] = 60
        run_experiment(validate_config(base))
        run_experiment(validate_config(more))
        short = (tmp_path / "p1" / "00_density.csv").read_text().splitlines()
        long = (tmp_path / "p2" / "00_density.csv").read_text().splitlines()
        assert long[: len(short)] == short

    def test_nhat_task_columns(self, tmp_path):
        cfg = validate_config(
            minimal_config(tmp_path / "v", tasks=[{"task": "nhat"}])
        )
        run_experiment(cfg)
        lines = (tmp_path / "v" / "00_nhat.csv").read_text().splitlines()
        assert lines[0] == "replicate,t,nhat"

    def test_tau_and_occupancy_tasks(self, tmp_path):
        cfg = validate_config(
            minimal_config(
                tmp_path / "w",
                tasks=[
                    {"task": "tau_coal", "replicates": 10},
                    {"task": "occupancy", "sites": [0, 3]},
                    {"task": "tracked_cluster"},
                ],
            )
        )
        manifest = run_experiment(cfg)
        files = [r["file"] for r in manifest["results"]]
        assert files == ["00_tau_coal.csv", "01_occupancy.csv", "02_tracked_cluster.csv"]
        occ_header = (tmp_path / "w" / "01_occupancy.csv").read_text().splitlines()[0]
        assert occ_header == "replicate,t,xi_size,occ_0,occ_3"
        tracked = (tmp_path / "w" / "02_tracked_cluster.csv").read_text().splitlines()
        assert tracked[0] == "replicate,t,xi_size,N_t"


class TestGoldenDigests:
    """The runner's CSV bytes, pinned: any change to a kernel's draws,
    picks or state updates shows here, at one worker and at two."""

    CYCLE8 = {
        "density": "3c2c90d63aeb23eddc2b5eaa97da811b0e07036705a3e76f330550a1a9f8299d",
        "tracked_cluster": "aac7338ed33bb52b06a0f5514e093baf8bdfcfd605e60d5eae63ec974751053f",
        "occupancy": "cad3bb195e43d32edf1ce1d3e96d2ab42cc4e4296281e7634b49fc048d75ddbe",
        "nhat": "d3da0d07f14bc9cb151ae8382ecd64f051f979263c928fc9c96837e8855c4fa9",
        "tau_coal": "f94d1bb32d365f9d837624cb7ccbda322eaf7ba95b24a4be49ecdabab7a18c04",
    }
    # one lockstep density block of 30 rows at width 524 on torus(3, 10)
    TORUS = "15d7ede0d5246153ad8361f74bc0b44365633f744bbc071e670f308c03d75143"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cycle8_every_task(self, tmp_path, threads):
        raw = minimal_config(tmp_path, tasks=[{"task": k} for k in KINDS])
        # three blocks of 1024 rows, so two workers split them
        raw["replicates"] = 2500
        manifest = run_experiment(validate_config(raw), threads=threads)
        assert {r["task"]: r["sha256"] for r in manifest["results"]} == self.CYCLE8
        assert [r["blocks"] for r in manifest["results"]] == [3] * 5

    @pytest.mark.parametrize("threads", [1, 2])
    def test_torus_density_block(self, tmp_path, threads):
        raw = minimal_config(tmp_path, tasks=[{"task": "density"}])
        raw.update(graph={"family": "torus", "params": [3, 10]}, times=[0.5],
                   replicates=30)
        manifest = run_experiment(validate_config(raw), threads=threads)
        assert manifest["results"][0]["sha256"] == self.TORUS


class TestBlockStreams:
    """A replicate's rows depend only on its index.  With 16-row blocks, 40
    replicates are two full blocks plus a remainder.  The blocks run on the
    lockstep kernels; ``test_lockstep.TestOneLayout`` shows that the scalar
    engines give the same values and counters."""

    @pytest.fixture(autouse=True)
    def blocks_of_16(self, monkeypatch):
        monkeypatch.setattr(runner, "_BLOCK_CAP", 16)

    @staticmethod
    def run(tmp_path, name, kind, replicates, threads=1, graph=None):
        raw = minimal_config(tmp_path / name, tasks=[{"task": kind}])
        raw["replicates"] = replicates
        if graph is not None:
            raw["graph"] = graph
        manifest = run_experiment(validate_config(raw), threads=threads)
        lines = (tmp_path / name / f"00_{kind}.csv").read_text().splitlines()
        return manifest["results"][0], lines

    @staticmethod
    def graph_file(tmp_path, g):
        path = tmp_path / "g.crwgraph"
        write_graph(g, path)
        return {"path": str(path)}

    @pytest.mark.parametrize("irregular", [False, True], ids=["cycle8", "lollipop"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_threads_and_prefix(self, tmp_path, kind, irregular):
        graph = self.graph_file(tmp_path, LOLLIPOP) if irregular else None
        res, one = self.run(tmp_path, "t1", kind, 40, 1, graph)
        _, three = self.run(tmp_path, "t3", kind, 40, 3, graph)
        _, longer = self.run(tmp_path, "long", kind, 61, 1, graph)
        assert res["blocks"] == 3
        assert one == three
        assert len(longer) > len(one) and longer[: len(one)] == one

    def test_all_tasks_share_one_pool(self, tmp_path, pools):
        raw = minimal_config(tmp_path, tasks=[{"task": k} for k in KINDS])
        digests = {}
        for threads in (1, 2):
            raw["outputs"] = str(tmp_path / f"w{threads}")
            manifest = run_experiment(validate_config(raw), threads=threads)
            digests[threads] = [r["sha256"] for r in manifest["results"]]
            for rec in manifest["results"]:
                data = (tmp_path / f"w{threads}" / rec["file"]).read_bytes()
                assert hashlib.sha256(data).hexdigest() == rec["sha256"]
                assert data.count(b"\r\n") == 1 + rec["rows"]
        assert digests[1] == digests[2]
        assert len(pools) == 1

    def test_manifest_counters(self, tmp_path):
        res, _ = self.run(tmp_path, "c", "tau_coal", 40)
        # every replicate needs n - 1 merges, and regular rates thin nothing
        assert res["events"] >= 7 * 40 and res["thinning_rejections"] == 0
        assert res["blocks"] == 3
        on_disk = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert on_disk["results"][0]["events"] == res["events"]
        res, _ = self.run(tmp_path, "r", "density", 40)
        assert res["events"] > 0 and res["thinning_rejections"] == 0
        lollipop = self.graph_file(tmp_path, LOLLIPOP)
        for kind in ("density", "tau_coal"):
            res, _ = self.run(tmp_path, "l" + kind, kind, 40, graph=lollipop)
            assert res["events"] > 0
            # a picked source is kept with probability rate / r_max
            assert res["thinning_rejections"] > 0

    @pytest.mark.parametrize(
        "g", [Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(3, [])],
        ids=["two_parts", "edgeless"],
    )
    def test_disconnected_tau_coal_names_task(self, tmp_path, g):
        with pytest.raises(TaskError) as err:
            self.run(tmp_path, "d", "tau_coal", 40, graph=self.graph_file(tmp_path, g))
        assert "tau_coal" in str(err.value)
        assert isinstance(err.value.__cause__, NotConnected)

    def test_pool_closes_after_task_error(self, tmp_path):
        # the density task starts the workers; tau_coal then fails
        raw = minimal_config(tmp_path, tasks=[{"task": "density"}, {"task": "tau_coal"}])
        raw["graph"] = self.graph_file(tmp_path, Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(TaskError) as err:
            run_experiment(validate_config(raw), threads=2)
        assert isinstance(err.value.__cause__, NotConnected)
        assert (tmp_path / "00_density.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched pass function reaches forked workers only")
    def test_pool_closes_after_worker_error(self, tmp_path, monkeypatch):
        # with this class's 16-row blocks, the nhat task's 40 replicates are
        # three blocks, so three one-block chunks at two threads: chunks 0
        # and 2 run in the calling process and chunk 1 in the pool's worker.
        # Its passes fail in one of the two, after the density task has
        # started the pool, and the message names the failing process
        run_pass = runner._pass
        here = os.getpid()
        for where in ("worker", "caller"):
            def failing(flat, task, *args, where=where):
                if task["task"] == "nhat" and (os.getpid() == here) == (where == "caller"):
                    raise RuntimeError(f"block failed in pid {os.getpid()}")
                return run_pass(flat, task, *args)

            monkeypatch.setattr(runner, "_pass", failing)
            raw = minimal_config(tmp_path / where,
                                 tasks=[{"task": "density"}, {"task": "nhat"}])
            with pytest.raises(TaskError) as err:
                run_experiment(validate_config(raw), threads=2)
            assert "nhat" in str(err.value) and "block failed" in str(err.value)
            assert (f"pid {here}" in str(err.value)) == (where == "caller")
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched pass function reaches forked workers only")
    def test_next_task_queued_before_last_chunk(self, tmp_path, monkeypatch):
        # three one-block chunks per task at two threads, of which this
        # process runs chunks 0 and 2: the nhat task's chunks are queued
        # before it runs the density task's chunk 2
        run_pass, queue = runner._pass, runner._queue
        here = os.getpid()
        events = []

        def passing(flat, task, *args):
            if os.getpid() == here:
                events.append(("pass", task["task"]))
            return run_pass(flat, task, *args)

        def queuing(worker, args_list, *args):
            events.append(("queue", args_list[0][1]["task"]))
            return queue(worker, args_list, *args)

        monkeypatch.setattr(runner, "_pass", passing)
        monkeypatch.setattr(runner, "_queue", queuing)
        raw = minimal_config(tmp_path, tasks=[{"task": "density"}, {"task": "nhat"}])
        run_experiment(validate_config(raw), threads=2)
        assert events == [("queue", "density"), ("pass", "density"), ("queue", "nhat"),
                          ("pass", "density"), ("pass", "nhat"), ("pass", "nhat")]


class TestCsvFormat:
    def test_seventeen_digits(self):
        assert format_cell(1 / 3) == "0.33333333333333331"
        assert format_cell(7) == "7"

    def test_quoting(self):
        assert format_cell('a,"b"') == '"a,""b"""'

    def test_crlf(self):
        assert rows_to_csv(["a"], [(1,)]) == "a\r\n1\r\n"

    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.0**53 + 1.0, 0.1, -1e300]
    BIG = [2**63 - 1, -(2**63), 2**53 + 1, 0, -7]

    @pytest.mark.parametrize("grid", [[0.5, 1.0, 2.0], [1, 2], [1.0, 2.0], [1 / 3]])
    @pytest.mark.parametrize("first", [0, 3072])
    @pytest.mark.parametrize("kind", ["int64", "float64"])
    @pytest.mark.parametrize("shape", ["tau_coal", "one_column", "three_columns"])
    def test_block_csv_matches_rows(self, shape, kind, first, grid):
        rng = np.random.default_rng(5)
        pool = np.array(self.BIG if kind == "int64" else self.SPECIAL, dtype=kind)
        size = {"tau_coal": (17,), "one_column": (17, len(grid), 1),
                "three_columns": (17, len(grid), 3)}[shape]
        vals = rng.choice(pool, size=size)
        if kind == "float64":
            vals = np.where(rng.random(size) < 0.5, vals, rng.exponential(size=size))
        header = ["replicate", "t", "v"]
        expected = rows_to_csv(header, runner._rows(first, grid, vals))
        assert "replicate,t,v\r\n" + block_csv(first, grid, vals) == expected
        assert block_csv(first, grid, vals[:0]) == ""

    def test_block_csv_special_cells(self):
        vals = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.0**53 + 1.0])
        assert block_csv(7, [], vals).split("\r\n")[:-1] == [
            "7,nan", "8,inf", "9,-inf", "10,-0", "11,4.9406564584124654e-324",
            "12,9007199254740992",
        ]
        big = np.array([[[2**63 - 1]]])
        assert block_csv(0, [2], big) == "0,2,9223372036854775807\r\n"


class TestCliCommands:
    def test_gen_and_exact(self, tmp_path, capsys):
        gpath = str(tmp_path / "c6.crwgraph")
        assert main(["gen", "--family", "cycle", "--params", "6", "--out", gpath]) == 0
        out = str(tmp_path / "spec.csv")
        assert main(["exact", "spectrum", "--graph", gpath, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 7

    def test_exact_preview_matches_file(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        args = ["exact", "transition", "--family", "cycle", "--params", "4", "--t", "0.3"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        preview = capsys.readouterr().out.splitlines()
        assert preview == out.read_text().splitlines()

    def test_exact_huge_time_is_error(self, tmp_path, capsys):
        # lam * t past any Poisson term count: a NaN quantile, which ended
        # in a raw ValueError
        args = ["exact", "occupancy", "--family", "cycle", "--params", "4", "--t", "1e308"]
        assert main(args + ["--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: uniformization at lam*t = ") and err.count("\n") == 1

    def test_gen_cm(self, tmp_path):
        gpath = str(tmp_path / "cm.crwgraph")
        code = main(
            ["gen", "--cm-degrees", "3:0.5,4:0.5", "--n", "60", "--seed", "4",
             "--require-connected", "--out", gpath]
        )
        assert code == 0 and os.path.exists(gpath)

    def test_simulate_and_experiment(self, tmp_path):
        out = str(tmp_path / "sim")
        code = main(
            ["simulate", "--task", "density", "--family", "cycle", "--params", "8",
             "--times", "0.5,1", "--reps", "20", "--seed", "3", "--out", out]
        )
        assert code == 0
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path / "exp_out")))
        assert main(["experiment", str(cfg_path)]) == 0
        assert (tmp_path / "exp_out" / "manifest.json").exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"schema": 1}))
        assert main(["experiment", str(cfg_path)]) == 2

    def test_degree_law_not_summing_to_one_is_config_error(self, tmp_path, capsys):
        # used to pass validation and exit 1 from the graph build
        cfg = minimal_config(tmp_path / "out")
        cfg["graph"] = {"cm": {"degrees": [[3, 0.5]], "n": 20}}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: graph.cm.degrees: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,flag", [
        (["gen", "--cm-degrees", "3", "--n", "10"], "--cm-degrees"),
        (["gen", "--cm-degrees", "3:x", "--n", "10"], "--cm-degrees"),
        (["gen", "--cm-degrees", "3:0.5", "--n", "10"], "--cm-degrees"),
        (["gen", "--family", "cycle", "--params", "x"], "--params"),
        (["simulate", "--task", "density", "--family", "cycle", "--params", "8",
          "--times", "a,b"], "--times"),
        (["simulate", "--task", "occupancy", "--family", "cycle", "--params", "8",
          "--sites", "0,x"], "--sites"),
        (["exact", "spectrum", "--family", "cycle", "--params", "4.5"], "--params"),
        (["verify", "exact", "--threads", "0"], "--threads"),
        (["verify", "statistical", "--threads", "-3"], "--threads"),
        (["simulate", "--task", "density", "--family", "cycle", "--params", "8",
          "--threads", "0"], "--threads"),
        # experiment takes no --out: the bad value stops parsing first
        (["experiment", "config.json", "--threads", "-1"], "--threads"),
        # nan and inf died in the checks' replicate counts; 0 and -1 ran
        # every check at its replicate floor
        *((["verify", suite, "--scale", scale], "--scale")
          for suite in ("statistical", "paper") for scale in ("nan", "inf", "0", "-1", "x")),
    ])
    def test_bad_flag_is_config_error(self, tmp_path, capsys, args, flag):
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_verify_exact_passes(self, tmp_path, capsys):
        out = str(tmp_path / "ver")
        assert main(["verify", "exact", "--seed", "3", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "exact.csv"))
        # each row's sigma stands beside its value and threshold
        assert re.search(r"^pass  t_rel_cycle4 +abs_err +value=\S+ sigma=0 thr=1e-08$",
                         capsys.readouterr().out, re.M)

    def test_verify_statistical_sigma_units(self, capsys):
        # the largest of the arratia z values is in z units, and a KS
        # distance has no standard error
        main(["verify", "statistical", "--seed", "3", "--scale", "0.01"])
        rows = re.findall(r"^\w+  (\S+) +(\S+) +value=\S+ sigma=(\S+) thr=\S+$",
                          capsys.readouterr().out, re.M)
        sigma = {f"{check}/{quantity}": s for check, quantity, s in rows}
        assert sigma["arratia_cycle6/max_z"] == "1"
        assert sigma["duality_cycle6/ks_nhat_vs_N"] == "nan"
        assert sigma["kingman_K8/ks_two_sample"] == "nan"


# an input path that cannot be read as UTF-8 text, made under tmp_path
UNREADABLE = {
    "missing": lambda tmp: tmp / "absent.json",
    "directory": lambda tmp: tmp,
    "not_utf8": lambda tmp: (tmp / "latin1.json", (tmp / "latin1.json").write_bytes(
        b'{"schema": 1, "outputs": "caf\xe9"}'))[0],
}


class TestUnreadableInputs:
    """A config or graph file that is missing, a directory or not UTF-8
    fails with one line naming its path (and ``graph.path`` for a config's
    graph), not with a raw traceback."""

    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_experiment_config(self, tmp_path, capsys, case):
        path = UNREADABLE[case](tmp_path)
        assert main(["experiment", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: <file>: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_config_graph_path(self, tmp_path, capsys, case):
        path = UNREADABLE[case](tmp_path / "in" if case == "directory" else tmp_path)
        if case == "directory":
            path.mkdir()
        cfg = minimal_config(tmp_path / "out")
        cfg["graph"] = {"path": str(path)}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: graph.path: {path}: ") and err.count("\n") == 1
        with pytest.raises(ConfigError, match="^graph.path: "):
            run_experiment(validate_config(cfg))

    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_exact_graph(self, tmp_path, capsys, case):
        path = UNREADABLE[case](tmp_path)
        assert main(["exact", "spectrum", "--graph", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_load_config(self, tmp_path, case):
        path = UNREADABLE[case](tmp_path)
        with pytest.raises(ConfigError, match=f"^<file>: {re.escape(str(path))}: "):
            load_config(path)


class TestOutputPaths:
    """An output directory that is a file, or lies under one, and an output
    file that is a directory fail with one line naming the path, not with a
    raw traceback."""

    def test_simulate_out_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("x")
        assert main(["simulate", "--task", "density", "--family", "cycle", "--params", "4",
                     "--reps", "2", "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot make directory: ")
        assert err.count("\n") == 1 and path.read_text() == "x"

    def test_verify_out_under_a_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "taken"
        path.write_text("x")
        # the path is checked before the suite runs
        ran = []
        monkeypatch.setattr(cli, "exact_suite", ran.append)
        assert main(["verify", "exact", "--out", str(path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path / 'x'}: cannot make directory: ")
        assert err.count("\n") == 1 and ran == []

    @pytest.mark.parametrize("argv", [["exact", "spectrum"], ["gen"]],
                             ids=["exact_spectrum", "gen"])
    def test_out_file_is_a_directory(self, tmp_path, capsys, argv):
        assert main([*argv, "--family", "cycle", "--params", "4", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: cannot write: ") and err.count("\n") == 1


def test_one_list_of_task_kinds():
    # the CLI's --task choices and the runner's paths read the config's kinds
    from coalesce.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    task = next(a for a in sub.choices["simulate"]._actions if a.dest == "task")
    assert tuple(task.choices) == KINDS == tuple(runner._SCALAR_BELOW)


class TestFailurePaths:
    def test_task_error_names_task(self, tmp_path):
        from coalesce.errors import TaskError

        # total-unit rates on an irregular graph fail only once the task runs
        raw = minimal_config(tmp_path / "f", tasks=[{"task": "occupancy"}])
        raw["graph"] = {"cm": {"degrees": [[2, 0.5], [3, 0.5]], "n": 20, "seed": 1}}
        raw["rate_convention"] = "total_unit"
        cfg = validate_config(raw)
        with pytest.raises(TaskError) as err:
            run_experiment(cfg)
        assert "occupancy" in str(err.value)

    def test_verify_failure_exit_code(self, monkeypatch, tmp_path):
        import coalesce.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "exact_suite",
            lambda seed: ([("rigged", "q", 1.0, 0.0, 0.0, False)], False),
        )
        assert main(["verify", "exact", "--seed", "0"]) == 1


class TestPaperCensoring:
    """Censored pair runs are left out of the mean meeting time, which
    biases it low, so any of them fails the paper row built on it."""

    @pytest.fixture
    def meeting_row(self, monkeypatch):
        # only the meeting row is read
        def run(censored):
            # a mean meeting time that puts the row at the centre of its band
            meet = (30 / (2 * alpha_regular_tree(3)), censored)
            rows, _, _ = stubbed_paper_suite(monkeypatch, meet=meet)
            [row] = [r for r in rows if r[1].startswith("two_meet_over_n_alpha")]
            return row

        return run

    def test_censored_run_fails_row(self, meeting_row):
        clean = meeting_row(0)
        assert clean[0] == "paper_cm3" and clean[1] == "two_meet_over_n_alpha"
        assert clean[2] == pytest.approx(1.0) and clean[5]
        censored = meeting_row(1)
        assert censored[2] == clean[2] and not censored[5]
        assert "1 censored" in censored[1]


class TestPaperExact1d:
    def test_row_against_exact_density(self, monkeypatch):
        # the ring's estimate sits 5% above the exact density
        exact = exact_density_1d(200.0)
        rows, _, _ = stubbed_paper_suite(
            monkeypatch, density=lambda g: 1.05 * exact if g.n == 100_000 else 0.01, se=0.002)
        ring = [r for r in rows if r[0] == "paper_cycle1e5_d1"]
        assert [r[1] for r in ring] == ["ratio_bg", "ratio_exact_1d"]
        _, _, value, sigma, threshold, ok = ring[1]
        assert value == pytest.approx(1.05, rel=1e-12) and ok
        assert sigma == pytest.approx(0.002 / exact, rel=1e-12) and threshold == 0.10


def run_fresh(code, cwd=None):
    """Run ``code`` in a fresh interpreter on this package and return its
    standard output."""
    src = os.path.dirname(os.path.dirname(coalesce.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# run here and in a fresh interpreter, which loads scipy for them
EXACT_ORACLES = """
from coalesce import (build_generator, exact_occupancy_density, pairwise_meeting_times,
                      transition_matrix)
from coalesce.graphs import cycle_graph, torus_graph
from coalesce.theory import exact_density_1d

meeting = pairwise_meeting_times(build_generator(torus_graph(3, 3)))
oracles = {
    "occupancy": exact_occupancy_density(build_generator(cycle_graph(6)), [0.5, 1.0]),
    "transition": transition_matrix(build_generator(torus_graph(2, 4)), 0.7),
    "density_1d": exact_density_1d(2.5),
    **{f"meeting.{k}": v for k, v in vars(meeting).items()},
}
"""

# the Monte Carlo paths, then the exact oracles, pickled to oracles.pkl
MONTE_CARLO_THEN_EXACT = """
import pickle, sys
from coalesce import (build_generator, mean_field_predictions, run_experiment,
                      sample_nhat_ancestral, spectrum)
from coalesce.config import validate_config
from coalesce.graphs import torus_graph
from coalesce.seeding import derive_rng

for threads in (1, 2):
    run_experiment(validate_config(dict({cfg!r}, outputs=f"out{{threads}}")), threads)
g = torus_graph(3, 3)
spec = spectrum(build_generator(g))
mean_field_predictions(g.n, 2.0, spec.eigentime_sum() / 2.0, 0.5)
sample_nhat_ancestral(g, 1.0, 50, derive_rng(1, "fresh", 0))
print([m for m in ("scipy.sparse", "scipy.special") if m in sys.modules])
{oracles}
with open("oracles.pkl", "wb") as f:
    pickle.dump(oracles, f)
"""


class TestStartup:
    def test_import_skips_slow_scipy_modules(self):
        # scipy.stats alone once took about 1 s of every start-up, and
        # scipy.sparse with scipy.special 0.3 s; only the exact oracles load
        # scipy, on first call.  A fresh interpreter shows what importing loads
        out = run_fresh("import sys, coalesce, coalesce.cli; "
                        "print([m for m in sys.modules if m.startswith('scipy')])")
        assert out.strip() == "[]"

    def test_monte_carlo_paths_load_no_scipy(self, tmp_path):
        cfg = minimal_config("out", tasks=[{"task": k} for k in KINDS])
        code = MONTE_CARLO_THEN_EXACT.format(cfg=cfg, oracles=EXACT_ORACLES)
        assert run_fresh(code, tmp_path).strip() == "[]"
        for i, kind in enumerate(KINDS):
            one, two = ((tmp_path / d / f"{i:02d}_{kind}.csv").read_bytes()
                        for d in ("out1", "out2"))
            assert one == two
        # the oracles' bits do not depend on when scipy was loaded
        fresh = pickle.loads((tmp_path / "oracles.pkl").read_bytes())
        here = {}
        exec(EXACT_ORACLES, here)
        assert here["oracles"].keys() == fresh.keys()
        for key, value in here["oracles"].items():
            assert np.all(np.asarray(value) == np.asarray(fresh[key])), key


class TestSuitePool:
    def test_statistical_suite_one_pool(self, pools):
        one = statistical_suite(11, threads=1, scale=0.01)
        assert pools == []
        two = statistical_suite(11, threads=2, scale=0.01)
        assert len(pools) == 1
        assert one == two
        assert multiprocessing.active_children() == []


class TestThreadsChecked:
    @pytest.mark.parametrize("threads", [0, -1, True, 1.5])
    @pytest.mark.parametrize("entry", ["run_task", "statistical_suite", "paper_suite",
                                       "run_experiment"])
    def test_bad_threads_rejected(self, entry, threads, tmp_path):
        # 0 divided by zero in the runner's chunking; -1 ran on one process;
        # run_experiment ran 0 and -1 on one process and died on 1.5
        with pytest.raises(ParameterOutOfRange, match="^threads must"):
            if entry == "run_task":
                run_task(cycle_graph(8), "per_edge_unit", {"task": "density"}, [1.0], 40, 1,
                         threads=threads)
            elif entry == "run_experiment":
                run_experiment(validate_config(minimal_config(tmp_path / "out")),
                               threads=threads)
            else:
                getattr(verify, entry)(1, threads=threads)


class TestScaleChecked:
    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0, True, "1"])
    @pytest.mark.parametrize("entry", ["statistical_suite", "paper_suite"])
    def test_bad_scale_rejected(self, entry, scale):
        with pytest.raises(ParameterOutOfRange, match="^scale must"):
            getattr(verify, entry)(1, scale=scale)

import subprocess
import sys
import types
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    """tools/<name>.py, compiled from its source text: nothing under
    tools/ is written, not even a bytecode cache."""
    path = ROOT / "tools" / f"{name}.py"
    module = types.ModuleType(f"tools_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def load_bench_pairs():
    return load_tool("bench_pairs")


compare = load_bench_pairs().compare

# ten parent runs: median 14.5, quartiles 12.25 and 16.75, so the IQR is 4.5
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def shifted(values, by):
    return [v + by for v in values]


class TestCompare:
    """The verdicts of `tools/bench_pairs.compare`: a claim needs nine tenths
    of the pairs and a median gap beyond the parent's interquartile range."""

    def test_spread_of_each_side(self):
        row = compare(PARENT, shifted(PARENT, -5.0), "lower")
        assert row["parent"] == {"median": 14.5, "q1": 12.25, "q3": 16.75}
        assert row["change"] == {"median": 9.5, "q1": 7.25, "q3": 11.75}
        assert row["parent_iqr"] == 4.5
        assert row["median_gap"] == 5.0

    def test_lower_is_better(self):
        row = compare(PARENT, shifted(PARENT, -5.0), "lower")
        assert (row["wins"], row["losses"], row["ties"]) == (10, 0, 0)
        assert row["verdict"] == "better"

    def test_higher_is_worse_when_lower_is_better(self):
        row = compare(PARENT, shifted(PARENT, 5.0), "lower")
        assert (row["wins"], row["losses"], row["ties"]) == (0, 10, 0)
        assert row["verdict"] == "worse"

    @pytest.mark.parametrize("gap", [4.0, 4.5])
    def test_gap_within_the_parent_iqr_claims_nothing(self, gap):
        # every pair is a win, but the medians are at most the IQR, 4.5, apart
        row = compare(PARENT, shifted(PARENT, -gap), "lower")
        assert (row["wins"], row["median_gap"]) == (10, gap)
        assert row["verdict"] == "no claim"
        assert compare(PARENT, shifted(PARENT, gap), "lower")["verdict"] == "no claim"

    def test_ties_count_for_neither_side(self):
        row = compare(PARENT, list(PARENT), "lower")
        assert (row["wins"], row["losses"], row["ties"]) == (0, 0, 10)
        assert row["verdict"] == "no claim"

    @pytest.mark.parametrize("ties, verdict", [(1, "better"), (2, "no claim")])
    def test_nine_tenths_of_the_pairs_make_a_claim(self, ties, verdict):
        # the tied pairs are the slowest, so the change's median stays 9.5
        change = shifted(PARENT, -5.0)
        change[-ties:] = PARENT[-ties:]
        row = compare(PARENT, change, "lower")
        assert (row["wins"], row["ties"], row["median_gap"]) == (10 - ties, ties, 5.0)
        assert row["verdict"] == verdict

    @pytest.mark.parametrize(
        "change, verdict, wins, losses",
        [(1.0, "better", 10, 0), (0.9, "no claim", 0, 0), (0.8, "worse", 0, 10)],
    )
    def test_ok_share_is_better_higher(self, change, verdict, wins, losses):
        # a parent that never varies has an IQR of 0, so any steady gap counts
        row = compare([0.9] * 10, [change] * 10, "higher")
        assert (row["wins"], row["losses"]) == (wins, losses)
        assert row["verdict"] == verdict

    def test_end_to_end_directions(self):
        directions = load_bench_pairs().END_TO_END
        assert directions["ok_share"] == "higher"
        assert {d for name, d in directions.items() if name != "ok_share"} == {"lower"}


# -X importtime lines of `import numpy; import extrusim.cli`, shortened; an
# indented name is an import nested in the one below it
IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       309 |        309 | encodings.utf_8
import time:       912 |       1530 |     numpy._utils
import time:      1768 |     255038 | numpy
import time:       305 |        305 | extrusim
import time:      9686 |       9686 |   extrusim.model
import time:     10275 |      41786 | extrusim.cli
"""
parse_importtime = load_bench_pairs().parse_importtime


class TestParseImporttime:
    """`tools/bench_pairs.parse_importtime` reads the cumulative microseconds
    of top-level imports only."""

    def test_cumulative_of_each_top_level_import(self):
        assert parse_importtime(IMPORTTIME) == {"numpy": 255038, "extrusim.cli": 41786}

    def test_nested_line_is_not_top_level(self):
        # extrusim.cli imported by another module: no top-level line of its own
        nested = IMPORTTIME.replace("| extrusim.cli", "|   extrusim.cli")
        nested += "import time:       200 |      41986 | other\n"
        with pytest.raises(ValueError, match="extrusim.cli"):
            parse_importtime(nested)

    def test_missing_import_is_an_error(self):
        with pytest.raises(ValueError, match="numpy"):
            parse_importtime(IMPORTTIME.replace("| numpy\n", "| other\n"))


class TestWorkingSet:
    """`tools/bench_pairs.working_set_mb` reads one operation's tracemalloc
    peak from a fresh interpreter on a checkout's perfbench and src."""

    def test_regularity_peak_of_this_checkout(self):
        bench_pairs = load_bench_pairs()
        peak = bench_pairs.working_set_mb(bench_pairs.ROOT, "regularity", 1)
        # the regularity operation holds a few 101 x 401 fields
        assert 1.0 < peak < 50.0

    def test_unknown_workload_is_an_error(self):
        bench_pairs = load_bench_pairs()
        with pytest.raises(RuntimeError, match="working-set run exited 1"):
            bench_pairs.working_set_mb(bench_pairs.ROOT, "no-such-workload", 1)



class TestControlHorizons:
    """`tools/same_outputs.py` runs the README control example at each
    horizon under the control-horizons label."""

    def test_each_run_is_the_readme_example(self, tmp_path):
        same_outputs = load_tool("same_outputs")
        readme = (ROOT / "README.md").read_text()
        example = readme.split("Example, steering the interface")[1].split("```")[1].split()
        runs = [(label, params) for label, _, params in same_outputs.runs()
                if label == "control-horizons"]
        assert [params["mode.T"] for _, params in runs] == same_outputs.CONTROL_HORIZONS
        for label, params in runs:
            T = params["mode.T"]
            expected = [line.replace("mode.T=1.0", f"mode.T={T}")
                        .replace("mode.out=out", f"mode.out={tmp_path}") for line in example]
            text = same_outputs.config_text(label, params, tmp_path)
            assert sorted(text.splitlines()) == sorted(expected)


    def test_loading_the_tool_leaves_the_process_as_it_was(self, monkeypatch):
        # perfbench/workloads.py is loaded by its path, with bytecode writing
        # off only around that import
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        path = list(sys.path)
        perfbench = sorted((ROOT / "perfbench").rglob("*"))
        same_outputs = load_tool("same_outputs")
        assert sys.path == path
        assert sys.dont_write_bytecode is False
        assert sorted((ROOT / "perfbench").rglob("*")) == perfbench
        assert same_outputs.workloads.pool("control")


class TestUpwindScrewSpeeds:
    """`tools/same_outputs.py` runs three sim-upwind inputs under each label
    of `UPWIND_N` with that label's screw speed."""

    def test_upwind_labels_swap_the_screw_speed_of_the_sim_upwind_config(self, tmp_path):
        same_outputs = load_tool("same_outputs")
        for label, N in same_outputs.UPWIND_N.items():
            runs = [params for name, _, params in same_outputs.runs() if name == label]
            assert len(runs) == 3
            for params in runs:
                base = same_outputs.config_text("sim-upwind", params, tmp_path)
                assert same_outputs.config_text(label, params, tmp_path) == base.replace(
                    "data.N=constant:eq", N)


class TestBytecode:
    """`tools/bench_pairs.py` measures both sides importing the checkouts'
    modules from source: it refuses a checkout that holds bytecode of them,
    and no process it starts writes any."""

    @staticmethod
    def checkout(root):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "src" / "extrusim").mkdir(parents=True)
        return root

    @pytest.mark.parametrize("tree", ["src/extrusim", "perfbench"])
    def test_checkout_with_cached_bytecode_is_refused(self, tmp_path, capsys, tree):
        parent, change = self.checkout(tmp_path / "parent"), self.checkout(tmp_path / "change")
        cache = change / tree / "__pycache__"
        cache.mkdir()
        bench_pairs = load_bench_pairs()
        assert bench_pairs.cached_bytecode(parent) == []
        assert bench_pairs.cached_bytecode(change) == [cache]
        out = tmp_path / "BENCH.json"
        assert bench_pairs.main([str(parent), str(change), "sim-char", "1", "2", "1",
                                 "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"change: {cache} holds bytecode") and err.count("\n") == 1
        assert not out.exists()

    def test_every_process_writes_no_bytecode(self, monkeypatch):
        bench_pairs = load_bench_pairs()
        envs = []

        def fake_run(args, **kwargs):
            envs.append(kwargs["env"])
            return subprocess.CompletedProcess(args, 1, "", "")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        root = bench_pairs.ROOT
        for call in (lambda: bench_pairs.run_once(root, "regularity", 1, 1.0),
                     lambda: bench_pairs.import_times(root),
                     lambda: bench_pairs.working_set_mb(root, "regularity", 1)):
            with pytest.raises(RuntimeError):
                call()
        assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1", "1", "1"]
        assert [env.get("PYTHONPATH") for env in envs[1:]] == [str(root / "src")] * 2

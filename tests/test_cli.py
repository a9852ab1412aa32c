"""Command-line interface: outputs, determinism, and exit codes."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import shutil
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphlv
import graphlv.classify
from graphlv import CompetitionParams, Problem, classify_neumann, integrate
from graphlv.cli import main
from graphlv.fixtures import reproduce_ids, triangle_example


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def triangle_doc(**overrides):
    doc = {
        "graph": {
            "vertices": ["x1", "x2", "x3"],
            "edges": [["x1", "x2", 1.0], ["x2", "x3", 1.0], ["x1", "x3", 1.0]],
        },
        "bc": "none",
        "params": {"a1": 1.0, "b1": 2.0, "c1": 2.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
        "initial": {"u": {"x1": 7.0, "x2": 6.0, "x3": 5.0},
                    "v": {"x1": 4.0, "x2": 3.0, "x3": 2.0}},
    }
    doc.update(overrides)
    return doc


def absorbing_doc(**param_overrides):
    params = {"a1": 2.0, "b1": 1.0, "c1": 0.05, "a2": 2.0, "b2": 0.05, "c2": 1.0,
              "d1": 0.1, "d2": 0.1}
    params.update(param_overrides)
    return {
        "graph": {
            "vertices": ["x1", "x2", "x3", "x4", "x5"],
            "edges": [["x4", "x1", 1.0], ["x1", "x2", 1.0], ["x1", "x3", 1.0],
                      ["x2", "x3", 1.0], ["x3", "x5", 1.0]],
            "interior": ["x1", "x2", "x3"],
        },
        "bc": "dirichlet",
        "params": params,
        "initial": {"u": 0.5, "v": 0.5},
    }


def path_doc(**param_overrides):
    """The path a-e absorbing at its ends, two competitors with weak cross-competition."""
    params = {"a1": 3.0, "b1": 1.0, "c1": 0.1, "a2": 3.0, "b2": 0.1, "c2": 1.0}
    params.update(param_overrides)
    return {
        "graph": {"vertices": ["a", "b", "c", "d", "e"],
                  "edges": [["a", "b", 1.0], ["b", "c", 1.0], ["c", "d", 1.0], ["d", "e", 1.0]],
                  "interior": ["b", "c", "d"]},
        "bc": "dirichlet",
        "params": params,
        "initial": {"u": 0.5, "v": 0.5},
    }


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_writes_trajectory_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, triangle_doc())
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--t-end", "30"]) == 0
        rows = read_csv(out + "/trajectory.csv")
        assert rows[0] == ["t", "u@x1", "u@x2", "u@x3", "v@x1", "v@x2", "v@x3"]
        assert float(rows[1][0]) == 0.0 and float(rows[-1][0]) == 30.0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["boundary"] == "none"
        assert report["steps"]["n_steps"] > 0
        assert report["steps"]["n_rhs"] >= 6 * report["steps"]["n_steps"]
        assert report["steps"]["n_rejected"] >= 0
        # dominant v drives u out by t=30
        assert abs(report["final"]["u"]["x1"]) < 1e-2
        assert abs(report["final"]["v"]["x1"] - 1.0) < 1e-2
        assert "wrote" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, triangle_doc())
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b]) == 0
        traj_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        traj_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert traj_a == traj_b

    @staticmethod
    def _per_value_writer(path, vertices, traj):
        """The trajectory writer as it was: one "%.17g" format per value."""
        fmt = lambda x: "%.17g" % float(x)
        header = ",".join(["t"] + [f"u@{v}" for v in vertices] + [f"v@{v}" for v in vertices])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for t, state in zip(traj.times, traj.states):
                row = [fmt(t)] + [fmt(x) for x in state.u] + [fmt(x) for x in state.v]
                fh.write(",".join(row) + "\n")

    @pytest.mark.parametrize("case", ["triangle", "lattice", "extremes"])
    def test_trajectory_csv_matches_the_per_value_writer(self, tmp_path, case):
        rng = np.random.default_rng(40)
        if case == "extremes":
            vertices = ["a", "b", "c"]
            values = [0.0, -0.0, 5e-324, 1e-300, 1e308, np.inf, np.nan, 1 / 3, 2.0**53 + 1]
            states = [graphlv.FieldPair(u=np.array(values[k:k + 3]),
                                        v=np.array(values[::-1][k:k + 3])) for k in range(7)]
            traj = graphlv.Trajectory(times=np.linspace(0.0, 0.1, 7), states=states)
        else:
            if case == "triangle":
                graph = triangle_example()
            else:
                names = [f"r{r}c{c}" for r in range(40) for c in range(40)]
                edges = [(f"r{r}c{c}", f"r{r}c{c + 1}", float(rng.uniform(0.8, 1.2)))
                         for r in range(40) for c in range(39)]
                edges += [(f"r{r}c{c}", f"r{r + 1}c{c}", float(rng.uniform(0.8, 1.2)))
                          for r in range(39) for c in range(40)]
                graph = graphlv.build_graph(names, edges)
            params = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)
            initial = (rng.uniform(0.0, 0.5, graph.n), rng.uniform(0.0, 1.0, graph.n))
            traj = integrate(Problem(graph, params), initial, t_end=0.2, max_samples=12)
            vertices = graph.vertices
        graphlv.cli._write_trajectory(str(tmp_path / "new.csv"), vertices, traj)
        self._per_value_writer(str(tmp_path / "old.csv"), vertices, traj)
        digest = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("new.csv", "old.csv")]
        assert digest[0] == digest[1]

    def test_unstable_step_is_a_numerical_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, triangle_doc())
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", cfg, "--out", out, "--dt", "1e9"])
        assert code == 3
        assert "StepSizeUnstable" in capsys.readouterr().err

    @pytest.mark.parametrize("u0", [1e308, 1e8])
    def test_huge_initial_data_exits_three(self, tmp_path, u0):
        cfg = write_config(tmp_path, triangle_doc(initial={"u": u0, "v": 1.0}))
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(graphlv.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "graphlv.cli", "simulate", "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 3
        assert "StepSizeUnstable" in proc.stderr

    def test_disconnected_interior_is_a_config_error(self, tmp_path, capsys):
        doc = absorbing_doc()
        doc["graph"] = {
            "vertices": ["x1", "x2", "x3", "x4"],
            "edges": [["x1", "x2", 1.0], ["x2", "x3", 1.0], ["x3", "x4", 1.0]],
            "interior": ["x1", "x3", "x4"],
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and "connected" in err

    def test_bad_config_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, triangle_doc())
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--t-end", "0"]) == 2

        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["simulate", "--config", str(bad), "--out", out]) == 2

        doc = absorbing_doc()
        doc["initial"] = {"u": {"x1": 1.0, "x2": 1.0, "x3": 1.0, "x4": 2.0, "x5": 0.0},
                          "v": 0.5}
        cfg = write_config(tmp_path, doc, "absorbing.json")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "boundary" in capsys.readouterr().err


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _near_power_of_ten(e: int, ulps: int, negative: bool) -> float:
    """10**e (the double nearest it) moved by ``ulps`` units in the last place."""
    bits = struct.unpack("<Q", struct.pack("<d", float(Fraction(10) ** e)))[0]
    return (-1.0 if negative else 1.0) * _float_from_bits(bits + ulps)


def _decimal_ties(k: int):
    """Doubles q / 2**(17 - k), q odd, exactly halfway between two 17-digit decimals of
    exponent k: their digits are 2 D + 1 = q 5**(16 - k) over 2 10**(16 - k)."""
    low, high = 2 * 10**16 // 5**(16 - k) + 1, min(2 * 10**17 // 5**(16 - k), 2**53)
    return st.integers(low // 2, (high - 1) // 2).map(lambda h: math.ldexp(2 * h + 1, k - 17))


_CELL_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_from_bits),    # subnormals, +-0, +-inf, nan
    st.builds(_near_power_of_ten, st.integers(-7, 18), st.integers(-40, 40), st.booleans()),
    st.integers(-4, 15).flatmap(_decimal_ties),
    st.builds(lambda m, j: math.ldexp(2 * m + 1, -j), st.integers(0, 2**52 - 1),
              st.integers(0, 80)),    # odd m / 2**j
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestCellWriter:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_CELL_VALUES, min_size=1, max_size=60), width=st.integers(1, 7),
           chunk=st.integers(1, 40), cuts=st.lists(st.integers(0, 60), max_size=4),
           labelled=st.booleans())
    def test_cells_match_the_percent_format(self, values, width, chunk, cuts, labelled):
        """Every cell is "%.17g" % x byte for byte, whatever the value, the row width, the
        chunk boundaries (mid-row too) and the pieces the block arrives in."""
        values = values[:len(values) // width * width] or [0.0] * width
        block = np.array(values)
        pieces = np.split(block, sorted(min(c, block.size) for c in cuts))
        rows = [values[i:i + width] for i in range(0, len(values), width)]
        labels = [f"r{i}".encode() for i in range(len(rows))] if labelled else None
        expected = "".join(
            ",".join(([f"r{i}"] if labelled else []) + ["%.17g" % x for x in row]) + "\n"
            for i, row in enumerate(rows))
        written = b"".join(graphlv.cli._cells(pieces, width, labels, chunk=chunk))
        assert written.decode() == expected

    def test_a_chunk_of_exponent_form_cells(self):
        """A chunk with no cell in fixed notation (an extinct species decaying towards
        1e-300) is spelled by the fallback alone."""
        values = np.geomspace(1e-300, 1e-5, 999)
        expected = "".join("%.17g\n" % x for x in values)
        assert b"".join(graphlv.cli._cells((values,), 1)).decode() == expected


def _hostile_names(n):
    """n vertex names that need quoting in a CSV field, then plain ones."""
    names = ["a,b", 'c"d', "e\nf", "g\r\nh", '"', ","]
    return names[:n] + [f"plain{i}" for i in range(n - len(names[:n]))]


class TestQuotedNames:
    """A vertex name with a comma, a quote, CR or LF is quoted (RFC 4180) wherever a CSV
    writes it, so every row reads back with csv.reader to the header's number of fields."""

    @staticmethod
    def _rename(doc, names):
        old = doc["graph"]["vertices"]
        new = dict(zip(old, names))
        graph = doc["graph"]
        graph["vertices"] = [new[v] for v in old]
        graph["edges"] = [[new[a], new[b], *w] for a, b, *w in graph["edges"]]
        if "interior" in graph:
            graph["interior"] = [new[v] for v in graph["interior"]]
        for side in ("u", "v"):
            if isinstance(doc["initial"][side], dict):
                doc["initial"][side] = {new[v]: x for v, x in doc["initial"][side].items()}
        return [new[v] for v in old]

    @staticmethod
    def _check(rows, header, names):
        assert rows[0] == header
        assert [r[0] for r in rows[1:]] == names
        assert {len(r) for r in rows} == {len(header)}

    def test_simulate_header(self, tmp_path):
        doc = triangle_doc()
        names = self._rename(doc, _hostile_names(3))
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--t-end", "1"]) == 0
        rows = read_csv(tmp_path / "o" / "trajectory.csv")
        assert rows[0] == ["t"] + [f"{s}@{v}" for s in "uv" for v in names]
        assert {len(r) for r in rows} == {7}
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert sorted(report["final"]["u"]) == sorted(names)

    def test_vertex_columns(self, tmp_path, capsys):
        doc = absorbing_doc(a2=0.01, c1=1.0)
        names = self._rename(doc, _hostile_names(5))
        interior = names[:3]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        self._check(read_csv(out / "predicted_limit.csv"), ["vertex", "u", "v"], names)
        capsys.readouterr()
        assert main(["eigen", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        for text in (printed, (out / "eigen.csv").read_text(encoding="utf-8")):
            rows = csv.reader(io.StringIO(text, newline=""))
            self._check([r for r in rows if not r[0].startswith("#")],
                        ["vertex", "phi1", "phi2"], interior)
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        self._check(read_csv(out / "steady.csv"), ["vertex", "s1", "s2"], interior)
        doc["params"].update(a2=2.0, c1=0.05)
        cfg = write_config(tmp_path, doc, "bounds.json")
        assert main(["steady", "--bounds", "--config", cfg, "--out", str(out)]) == 0
        self._check(read_csv(out / "coexistence_bounds.csv"),
                    ["vertex", "s_lo", "s_hi", "r_lo", "r_hi"], interior)

    def test_plain_names_are_not_quoted(self):
        assert graphlv.cli._quote(["x1", "u@x2", 3, "é"]) == ["x1", "u@x2", "3", "é"]
        assert graphlv.cli._quote(["x1", 'a"b']) == ["x1", '"a""b"']


class TestReport:
    @pytest.mark.parametrize("names", [
        ['a"b', "back\\slash", "ctl\x00\x01\x1f\x7f", "tab\tnl\n", "ünïcødé ☃ 𝔵", "", "z"],
        [10, 2, -3, 0],
        [0.5, 1e-7, 2.0, float("inf")],
        ["only"],
        [],
    ], ids=["hostile", "int", "float", "one", "empty"])
    def test_report_matches_the_indented_dump(self, tmp_path, names):
        rng = np.random.default_rng(5)
        report = {
            "t_end": 3.0,
            "final": {"u": dict(zip(names, rng.uniform(0, 2, len(names)).tolist())),
                      "v": dict(zip(names, [0.0, -0.0, 1e-300, float("nan"), 1e300, 1 / 3,
                                            np.float64(2.5)][:len(names)]))},
            "rectangle": {"m_u": np.float64(1.5), "m_v": 2.0},
            "steps": {"dt": 0.01, "n_steps": 12},
            "boundary": "neumann",
            "elapsed_seconds": 0.25,
            "files": {"trajectory": str(tmp_path / 'dir "x"' / "trajectory.csv")},
        }
        path = tmp_path / "report.json"
        graphlv.cli._write_report(str(path), report)
        expected = json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("names", [[1, "a", 2.5, None], [None, True, "b", -3, 0.5, "1"]],
                             ids=["int-str-float-null", "null-bool-str-int-float"])
    def test_simulate_reports_names_of_several_json_types(self, tmp_path, names):
        # json cannot sort these names: they come in the order of the key text it writes
        doc = {"graph": {"vertices": names,
                         "edges": [[a, b, 1.0] for a, b in zip(names, names[1:])]},
               "bc": "none",
               "params": {"a1": 1.0, "b1": 2.0, "c1": 2.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
               "initial": {"u": 0.5, "v": 0.25}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--t-end", "0.5"]) == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        final = json.loads(text, object_pairs_hook=dict)["final"]
        keys = sorted(json.dumps(v) if not isinstance(v, str) else v for v in names)
        assert list(final["u"]) == list(final["v"]) == keys
        assert all(x > 0 for side in final.values() for x in side.values())


class TestClassify:
    def test_constant_regime_inline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, triangle_doc())
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "regime: v-wins" in out
        assert "constant u=0 v=1" in out
        assert "certificate a1/a2 - b1/b2" in out

    def test_bistable_resolved_by_initial_data(self, tmp_path, capsys):
        doc = triangle_doc(
            params={"a1": 2.0, "b1": 1.0, "c1": 3.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
            initial={"u": {"x1": 0.6, "x2": 1.1, "x3": 1.8},
                     "v": {"x1": 0.1, "x2": 0.3, "x3": 0.45}},
        )
        cfg = write_config(tmp_path, doc)
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "regime: u-wins" in out and "constant u=2 v=0" in out

    def test_bistable_straddling_unresolved(self, tmp_path, capsys):
        doc = triangle_doc(
            params={"a1": 2.0, "b1": 1.0, "c1": 3.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
            initial={"u": 1.0, "v": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "regime: unresolved" in out and "predicted limit: none" in out

    def test_dirichlet_bounds_advice(self, tmp_path, capsys):
        cfg = write_config(tmp_path, absorbing_doc())
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "regime: coexist-bounds" in out
        assert "steady subcommand with --bounds" in out

    def test_dirichlet_semitrivial_writes_profile(self, tmp_path, capsys):
        cfg = write_config(tmp_path, absorbing_doc(a2=0.01, c1=1.0))
        out = str(tmp_path / "o")
        assert main(["classify", "--config", cfg, "--out", out]) == 0
        assert "regime: semitrivial-u" in capsys.readouterr().out
        rows = read_csv(out + "/predicted_limit.csv")
        assert rows[0] == ["vertex", "u", "v"]
        by_vertex = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        assert by_vertex["x4"] == (0.0, 0.0)
        assert by_vertex["x1"][0] > 0.0 and by_vertex["x1"][1] == 0.0


class TestEigen:
    def test_prints_pair_and_optionally_writes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, absorbing_doc())
        out = str(tmp_path / "o")
        assert main(["eigen", "--config", cfg, "--out", out]) == 0
        text = capsys.readouterr().out
        lam_line = [l for l in text.splitlines() if l.startswith("# lambda0_1")][0]
        lam = float(lam_line.split("=")[1])
        assert abs(lam - (5.0 - np.sqrt(13.0)) / 6.0) <= 1e-10
        rows = read_csv(out + "/eigen.csv")
        data = [r for r in rows if r and not r[0].startswith("#")]
        assert data[0] == ["vertex", "phi1", "phi2"]
        assert [r[0] for r in data[1:]] == ["x1", "x2", "x3"]
        assert float(data[2][1]) == 1.0  # normalized peak at x2

    def test_needs_partition(self, tmp_path, capsys):
        cfg = write_config(tmp_path, triangle_doc())
        assert main(["eigen", "--config", cfg]) == 2
        assert "partitioned" in capsys.readouterr().err


class TestSteady:
    def test_logistic_profiles(self, tmp_path, capsys):
        cfg = write_config(tmp_path, absorbing_doc())
        out = str(tmp_path / "o")
        assert main(["steady", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out + "/steady.csv")
        assert rows[0] == ["vertex", "s1", "s2"]
        values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
        assert np.all(values > 0.0)

    def test_subcritical_species_gets_zero_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, absorbing_doc(a2=0.01, d2=1.0))
        out = str(tmp_path / "o")
        assert main(["steady", "--config", cfg, "--out", out]) == 0
        captured = capsys.readouterr()
        assert "species 2 is subcritical" in captured.err
        rows = read_csv(out + "/steady.csv")
        s2 = [float(r[2]) for r in rows[1:]]
        assert s2 == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("overrides, solves", [({}, 1), ({"a2": 1.5}, 2)],
                             ids=["identical", "distinct"])
    def test_identical_species_are_solved_once(self, tmp_path, monkeypatch, overrides,
                                               solves):
        """One weight structure with (d, a, e) equal for both species takes one logistic
        solve, whose profile is both columns; a different a2 takes its own."""
        calls = []
        solve = graphlv.cli.logistic_steady_state

        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(graphlv.cli, "logistic_steady_state", counted)
        cfg = write_config(tmp_path, absorbing_doc(**overrides))
        out = str(tmp_path / "o")
        assert main(["steady", "--config", cfg, "--out", out]) == 0
        assert calls == [1, 2][:solves]
        rows = read_csv(out + "/steady.csv")[1:]
        assert all((r[1] == r[2]) == (solves == 1) for r in rows)

    def test_identical_subcritical_species_both_get_zero_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, absorbing_doc(a1=0.01, a2=0.01, d1=1.0, d2=1.0))
        out = str(tmp_path / "o")
        assert main(["steady", "--config", cfg, "--out", out]) == 0
        err = capsys.readouterr().err
        assert "species 1 is subcritical" in err and "species 2 is subcritical" in err
        assert all(r[1:] == ["0", "0"] for r in read_csv(out + "/steady.csv")[1:])

    def test_bounds_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, absorbing_doc())
        out = str(tmp_path / "o")
        assert main(["steady", "--config", cfg, "--out", out, "--bounds"]) == 0
        assert "unique (bounds collapse)" in capsys.readouterr().out
        rows = read_csv(out + "/coexistence_bounds.csv")
        assert rows[0] == ["vertex", "s_lo", "s_hi", "r_lo", "r_hi"]
        for row in rows[1:]:
            s_lo, s_hi, r_lo, r_hi = map(float, row[1:])
            assert 0.0 < s_lo <= s_hi and 0.0 < r_lo <= r_hi

    def test_requires_absorbing_bc(self, tmp_path, capsys):
        cfg = write_config(tmp_path, triangle_doc())
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dirichlet" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [[], ["--bounds"]], ids=["logistic", "bounds"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, form, tol):
        cfg = write_config(tmp_path, absorbing_doc())
        argv = ["steady", "--config", cfg, "--out", str(tmp_path / "o"), f"--tol={tol}"]
        assert main(argv + form) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [[], ["--bounds"]], ids=["logistic", "bounds"])
    def test_overflowing_growth_is_a_numerical_error(self, tmp_path, capsys, form):
        """Growth rates near the float limit overflow the logistic iterate: exit 3, not a
        bare ValueError from the dense solve's finiteness check."""
        cfg = write_config(tmp_path, absorbing_doc(a1=1e300, a2=1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")] + form) == 3
        assert "NoConvergence" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [[], ["--bounds"]], ids=["logistic", "bounds"])
    def test_unreachable_tol_stalls(self, tmp_path, capsys, form):
        """At capacity 2000 the logistic residual cannot reach the default 1e-10: exit 3
        once the iterates stop moving, not after the whole iteration budget."""
        cfg = write_config(tmp_path, absorbing_doc(a1=2000.0, a2=2000.0))
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")] + form) == 3
        err = capsys.readouterr().err
        assert "NoConvergence" in err and "stalled" in err

    @pytest.mark.parametrize("doc", [path_doc(a1=1e200), path_doc(a1=1e300),
                                     absorbing_doc(b1=1e-310)],
                             ids=["a1=1e200", "a1=1e300", "b1=1e-310"])
    def test_non_finite_iterate_exits_at_iteration_one(self, tmp_path, capsys, monkeypatch,
                                                        doc):
        """A logistic iterate or shift beyond floating point ends the solve at its first
        iteration, after at most one solve; a NaN passes every order check, so these used to
        run all 10 000 iterations."""
        solves, factor = [], graphlv.monotone._factor

        def counting(mat):
            solve = factor(mat)

            def counted(b):
                solves.append(b.shape)
                return solve(b)
            return counted

        monkeypatch.setattr(graphlv.monotone, "_factor", counting)
        cfg = write_config(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "NoConvergence" in err and "non-finite" in err and "at iteration 1" in err
        assert len(solves) <= 1

    def test_bounds_tol_has_a_floor(self, tmp_path, capsys):
        # the floor applies to --bounds only; the logistic solve takes any positive tol
        cfg = write_config(tmp_path, absorbing_doc())
        argv = ["steady", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv + ["--bounds", "--tol", "1e-12"]) == 2
        err = capsys.readouterr().err
        assert "InputError" in err and "at least 1e-10" in err
        assert main(argv + ["--bounds", "--tol", "1e-10"]) == 0
        assert main(argv + ["--tol", "1e-12"]) == 0


class TestReproduce:
    def test_single_case_passes(self, capsys):
        assert main(["reproduce", "neumann-i", "--t-end", "100"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("neumann-i: PASS")

    def test_unknown_id(self, capsys):
        assert main(["reproduce", "nope"]) == 2
        assert "UnknownExample" in capsys.readouterr().err

    def test_mismatch_exits_four(self, capsys):
        code = main(["reproduce", "neumann-i", "--t-end", "0.5", "--tol", "1e-9"])
        assert code == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--t-end", "-5"), ("--t-end", "nan"),
                                             ("--t-end", "inf"), ("--tol", "-1"),
                                             ("--tol", "nan"), ("--tol", "0")])
    def test_bad_override_is_an_input_error(self, capsys, flag, value):
        assert main(["reproduce", "neumann-i", flag, value]) == 2
        assert "InputError" in capsys.readouterr().err


class TestSweep:
    def sweep_doc(self, grid, max_points=2000):
        doc = triangle_doc(initial={"u": 1.0, "v": 1.0})
        doc["params"] = {"a1": 1.0, "b1": 2.0, "c1": 1.0,
                         "a2": 1.0, "b2": 1.0, "c2": 2.0}
        doc["sweep"] = {"grid": grid, "t_end": 60.0, "tol": 1e-2,
                        "max_points": max_points}
        return doc

    def test_grid_rows_and_agreement(self, tmp_path, capsys):
        doc = self.sweep_doc({"a1": [0.5, 2.0], "a2": [0.5, 2.0]})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out + "/sweep.csv")
        assert rows[0] == ["a1", "a2", "kind", "margin", "pred_u", "pred_v",
                           "u_min", "u_max", "v_min", "v_max", "sup_err", "agree"]
        assert len(rows) == 5
        body = {(r[0], r[1]): r for r in rows[1:]}
        # b1/b2 = 2 and c1/c2 = 1/2 put the equal-growth diagonal in the
        # coexistence band and the off-diagonal corners with the winners
        assert body[("0.5", "0.5")][2] == "coexist"
        assert body[("2", "0.5")][2] == "u-wins"
        assert body[("0.5", "2")][2] == "v-wins"
        for row in rows[1:]:
            assert row[-1] in ("yes", "no", "exempt")
        constant_rows = [r for r in rows[1:] if r[2] in ("u-wins", "v-wins", "coexist")]
        assert constant_rows and all(r[-1] == "yes" for r in constant_rows)

    def test_single_point_grid(self, tmp_path):
        doc = self.sweep_doc({"a1": [2.0]})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out + "/sweep.csv")
        assert len(rows) == 2

    def test_rows_match_pointwise_runs(self, tmp_path):
        doc = self.sweep_doc({"a1": [0.5, 1.0, 2.0], "a2": [0.5, 1.0, 2.0]})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        with open(out + "/sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        base = CompetitionParams(**doc["params"])
        for row in rows:
            params = dataclasses.replace(base, a1=float(row["a1"]), a2=float(row["a2"]))
            regime = classify_neumann(params)
            margin = min(abs(c.margin) for c in regime.certificates)
            final = integrate(Problem(triangle_example(), params), (1.0, 1.0), 60.0,
                              max_samples=2).final
            expected = {"u_min": final.u.min(), "u_max": final.u.max(),
                        "v_min": final.v.min(), "v_max": final.v.max()}
            agree = "exempt"
            if regime.predicted is not None:
                expected["pred_u"], expected["pred_v"] = regime.predicted.u, regime.predicted.v
                expected["sup_err"] = max(np.max(np.abs(final.u - regime.predicted.u)),
                                          np.max(np.abs(final.v - regime.predicted.v)))
                if margin > 0.05:
                    agree = "yes" if expected["sup_err"] <= 1e-2 else "no"
            assert row["kind"] == regime.kind.value
            assert float(row["margin"]) == margin
            assert row["agree"] == agree
            # the batch takes the largest error norm over its columns, so its steps differ from
            # the scalar run's; both keep each step within rtol 1e-8, and the flow contracts
            # toward the limit, so the states differ by a small multiple of rtol
            for column, value in expected.items():
                bound = 1e-9 if column.startswith("pred_") else 1e-7
                assert abs(float(row[column]) - value) <= bound, column

    @staticmethod
    def sweep_calls(tmp_path, monkeypatch, doc):
        """The integrate and eigen solve calls of a 3x2 (a1, d2) sweep of ``doc``."""
        calls = []
        for module, name in ((graphlv.cli, "integrate"),
                             (graphlv.classify, "smallest_dirichlet_eigenpair")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        doc["sweep"] = {"grid": {"a1": [0.05, 0.5, 2.0], "d2": [0.1, 1.0]}, "t_end": 5.0}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_csv(str(tmp_path / "o" / "sweep.csv"))) == 7
        return sorted(calls)

    def test_one_integrate_and_one_eigen_solve_per_species(self, tmp_path, monkeypatch):
        # both species have one weight structure, so they share one eigen solve
        calls = self.sweep_calls(tmp_path, monkeypatch, absorbing_doc())
        assert calls == ["integrate", "smallest_dirichlet_eigenpair"]

    def test_split_weights_take_an_eigen_solve_per_species(self, tmp_path, monkeypatch):
        doc = absorbing_doc()
        doc["graph"]["edges"] = [[a, b, w, 2.0 * w] for a, b, w in doc["graph"]["edges"]]
        calls = self.sweep_calls(tmp_path, monkeypatch, doc)
        assert calls == ["integrate"] + ["smallest_dirichlet_eigenpair"] * 2

    def test_workers_flag_rejected(self, tmp_path):
        cfg = write_config(tmp_path, self.sweep_doc({"a1": [2.0]}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("form, value", [("doc", -1), ("doc", 0), ("flag", "nan"),
                                             ("flag", "-1"), ("flag", "inf")])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, form, value):
        doc = self.sweep_doc({"a1": [0.5, 2.0], "a2": [0.5, 2.0]})
        argv = ["--out", str(tmp_path / "o")]
        if form == "doc":
            doc["sweep"]["tol"] = value
        else:
            argv += ["--tol", value]
        assert main(["sweep", "--config", write_config(tmp_path, doc)] + argv) == 2
        err = capsys.readouterr().err
        assert "InputError" in err and "tol must be positive and finite" in err
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        doc = self.sweep_doc({"a1": [0.5, 1.0], "a2": [0.5, 1.0]}, max_points=2)
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "GridTooLarge" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        {"a1": {"start": 0.5, "stop": 2.0, "count": 10**5},
         "a2": {"start": 0.5, "stop": 2.0, "count": 10**5}},
        {"a1": {"start": 0.5, "stop": 2.0, "count": 10**9}},
    ], ids=["two-axes-1e5", "one-axis-1e9"])
    def test_oversized_counts_rejected_before_building(self, tmp_path, capsys, monkeypatch,
                                                       grid):
        """An axis count above max_points exits 2 before the axis, or the grid, is built."""
        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep axis was built")

        monkeypatch.setattr(np, "linspace", unreachable)
        cfg = write_config(tmp_path, self.sweep_doc(grid))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "GridTooLarge" in capsys.readouterr().err

    def test_small_runs_never_import_scipy_sparse(self, tmp_path):
        """Triangle and fixture problems keep dense operators and solve no linear system or
        eigenproblem, so neither the sparse module (and its memory) nor scipy.linalg (most
        of a fresh process's start-up) is loaded by a process that only runs them."""
        doc = self.sweep_doc({"a1": [0.5, 2.0], "a2": [0.5, 2.0]})
        cfg = write_config(tmp_path, doc)
        assert scipy_modules_loaded([["reproduce", "all"],
                                     ["sweep", "--config", cfg, "--out", str(tmp_path / "o")]]
                                    ) == []

    def test_small_dirichlet_runs_never_import_scipy_sparse(self, tmp_path):
        """A 5-vertex absorbing problem keeps its interior block dense, so its eigen solve
        is LAPACK's and no command that solves it loads the sparse module."""
        cfg = write_config(tmp_path, absorbing_doc())
        out = str(tmp_path / "o")
        assert "scipy.sparse" not in scipy_modules_loaded(
            [["eigen", "--config", cfg], ["steady", "--config", cfg, "--out", out],
             ["steady", "--config", cfg, "--out", out, "--bounds"]])


def scipy_modules_loaded(commands) -> list[str]:
    """Which of scipy.sparse and scipy.linalg a fresh process that runs every CLI command
    (each must exit 0) imports."""
    script = "import sys\nfrom graphlv.cli import main\n"
    script += "".join(f"assert main({argv!r}) == 0\n" for argv in commands)
    script += "print(*(m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(graphlv.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


NON_NUMERIC = {
    "param": ("simulate", _set(("params", "a1"), "abc")),
    "edge-weight": ("simulate", _set(("graph", "edges", 0, 2), "w")),
    "measure": ("simulate", _set(("graph", "measures"),
                                 {"1": {"x1": "m", "x2": 1.0, "x3": 1.0}})),
    "t_end": ("simulate", _set(("t_end",), "x")),
    "dt": ("simulate", _set(("dt",), "x")),
    "grid-value": ("sweep", _set(("sweep", "grid", "a1"), [0.5, "x"])),
    "grid-start": ("sweep", _set(("sweep", "grid", "a1"),
                                 {"start": "x", "stop": 1.0, "count": 2})),
    "grid-stop": ("sweep", _set(("sweep", "grid", "a1"),
                                {"start": 0.5, "stop": None, "count": 2})),
    "grid-count": ("sweep", _set(("sweep", "grid", "a1"),
                                 {"start": 0.5, "stop": 1.0, "count": "two"})),
    "sweep-t_end": ("sweep", _set(("sweep", "t_end"), "x")),
    "sweep-tol": ("sweep", _set(("sweep", "tol"), "x")),
    "sweep-max_points": ("sweep", _set(("sweep", "max_points"), "many")),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC))
def test_non_numeric_config_value_is_a_config_error(tmp_path, capsys, case):
    command, mutate = NON_NUMERIC[case]
    doc = triangle_doc()
    doc["sweep"] = {"grid": {"a1": [0.5, 2.0]}, "t_end": 1.0, "tol": 1e-2, "max_points": 10}
    mutate(doc)
    cfg = write_config(tmp_path, doc)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "ConfigInvalid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classify", "--t-end", "-5"], ["eigen", "--tol", "1"],
                                  ["steady", "--dt", "1"], ["sweep", "--dt", "1e9"],
                                  ["simulate", "--tol", "1"]])
def test_options_no_handler_reads_are_rejected(tmp_path, argv):
    cfg = write_config(tmp_path, absorbing_doc())
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_console_entry_point():
    """The ``[project.scripts]`` target runs from the source tree as the installed wrapper
    runs it, and so does the ``graphlv`` script when one is on PATH."""
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["graphlv"]
    module, func = target.split(":")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    commands = [[sys.executable, "-c", f"import sys; from {module} import {func}; "
                                       f"sys.exit({func}())", "--help"]]
    if shutil.which("graphlv") is not None:
        commands.append(["graphlv", "--help"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "reproduce" in proc.stdout


def test_regime_sweep_script(tmp_path, monkeypatch):
    """The 11x11 (a1, a2) sweep of scripts/regime_sweep.py, end to end."""
    path = pathlib.Path(__file__).parents[1] / "scripts" / "regime_sweep.py"
    spec = importlib.util.spec_from_file_location("regime_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path)])
    assert script.main() == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 121
    assert not [row for row in rows if row["agree"] == "no"]
    base = CompetitionParams(**script.DOC["params"])
    for row in rows:
        params = dataclasses.replace(base, a1=float(row["a1"]), a2=float(row["a2"]))
        assert row["kind"] == classify_neumann(params).kind.value


def test_reproduce_all_script(capsys):
    """scripts/reproduce_all.py runs every built-in case and passes each."""
    path = pathlib.Path(__file__).parents[1] / "scripts" / "reproduce_all.py"
    spec = importlib.util.spec_from_file_location("reproduce_all", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [[case_id, "PASS"]
                                                    for case_id in reproduce_ids()]

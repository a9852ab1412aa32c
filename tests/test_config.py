"""JSON run-configuration parsing and validation."""

import json

import numpy as np
import pytest
from conftest import dense_weights

from graphlv import BoundaryCondition
from graphlv.config import (
    config_from_document,
    load_document,
    problem_from_document,
    sweep_spec_from_document,
)
from graphlv.errors import ConfigInvalid


def base_doc():
    return {
        "graph": {
            "vertices": ["x1", "x2", "x3"],
            "edges": [["x1", "x2", 1.0], ["x2", "x3", 1.0], ["x1", "x3", 1.0]],
        },
        "bc": "none",
        "params": {"a1": 1.0, "b1": 2.0, "c1": 2.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
        "initial": {"u": 1.0, "v": 0.5},
    }


def dirichlet_doc():
    doc = base_doc()
    doc["graph"]["vertices"] = ["x1", "x2", "x3", "x4", "x5"]
    doc["graph"]["edges"] = [
        ["x4", "x1", 1.0], ["x1", "x2", 1.0], ["x1", "x3", 1.0],
        ["x2", "x3", 1.0], ["x3", "x5", 1.0],
    ]
    doc["graph"]["interior"] = ["x1", "x2", "x3"]
    doc["bc"] = "dirichlet"
    return doc


class TestLoadDocument:
    def test_reads_json_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_doc()))
        assert load_document(str(path))["bc"] == "none"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="cannot read"):
            load_document(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="not valid JSON"):
            load_document(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigInvalid, match="JSON object"):
            load_document(str(path))


class TestProblemFromDocument:
    def test_whole_graph(self):
        prob = problem_from_document(base_doc())
        assert prob.bc is BoundaryCondition.NO_BOUNDARY
        assert prob.graph.vertices == ("x1", "x2", "x3")
        assert prob.params.a1 == 1.0 and prob.params.d1 == 1.0

    def test_partitioned(self):
        prob = problem_from_document(dirichlet_doc())
        assert prob.bc is BoundaryCondition.DIRICHLET
        assert prob.partition.boundary == ("x4", "x5")

    def test_split_weights_edge_form(self):
        doc = base_doc()
        doc["graph"]["edges"] = [
            ["x1", "x2", 1.0, 2.0], ["x2", "x3", 1.0, 2.0], ["x1", "x3", 1.0, 2.0],
        ]
        prob = problem_from_document(doc)
        assert dense_weights(prob.graph, 2)[0, 1] == 2.0

    def test_measures_override(self):
        doc = base_doc()
        doc["graph"]["measures"] = {"1": {"x1": 1.0, "x2": 1.0, "x3": 1.0}}
        prob = problem_from_document(doc)
        assert np.allclose(prob.graph.mu1, 1.0)
        assert np.allclose(prob.graph.mu2, 2.0)  # still the weighted degree

    def test_bad_edge_entry(self):
        doc = base_doc()
        doc["graph"]["edges"][0] = ["x1", "x2"]
        with pytest.raises(ConfigInvalid, match="edge entries"):
            problem_from_document(doc)

    def test_unknown_bc(self):
        doc = base_doc()
        doc["bc"] = "periodic"
        with pytest.raises(ConfigInvalid, match='"bc"'):
            problem_from_document(doc)

    def test_interior_requirements(self):
        doc = base_doc()
        doc["graph"]["interior"] = ["x1"]
        with pytest.raises(ConfigInvalid, match="interior"):
            problem_from_document(doc)  # bc none takes no interior
        doc = dirichlet_doc()
        del doc["graph"]["interior"]
        with pytest.raises(ConfigInvalid, match="interior"):
            problem_from_document(doc)

    def test_param_validation(self):
        doc = base_doc()
        del doc["params"]["a1"]
        with pytest.raises(ConfigInvalid, match="a1"):
            problem_from_document(doc)
        doc = base_doc()
        doc["params"]["zz"] = 1.0
        with pytest.raises(ConfigInvalid, match="unknown param"):
            problem_from_document(doc)
        doc = base_doc()
        doc["params"]["b1"] = -2.0
        with pytest.raises(ConfigInvalid, match="positive"):
            problem_from_document(doc)
        # a JSON boolean or string is no number, even where 1 would do
        for key, value in (("a1", True), ("d2", True), ("a1", "1e0"), ("d2", " 2 ")):
            doc = base_doc()
            doc["params"][key] = value
            with pytest.raises(ConfigInvalid, match=f"params.{key} must be a number"):
                problem_from_document(doc)

    def test_graph_errors_become_config_errors(self):
        doc = base_doc()
        doc["graph"]["edges"][0] = ["x1", "x1", 1.0]
        with pytest.raises(ConfigInvalid):
            problem_from_document(doc)


class TestConfigFromDocument:
    def test_defaults_and_overrides(self):
        cfg = config_from_document(base_doc())
        assert cfg.t_end == 10.0 and cfg.dt is None
        cfg = config_from_document(base_doc(), t_end=99.0, dt=0.5)
        assert (cfg.t_end, cfg.dt) == (99.0, 0.5)

    def test_document_values_used(self):
        doc = base_doc()
        doc.update(t_end=25.0, dt=0.01)
        cfg = config_from_document(doc)
        assert (cfg.t_end, cfg.dt) == (25.0, 0.01)

    def test_invalid_budgets(self):
        for patch in ({"t_end": 0.0}, {"dt": -1.0}, {"dt": True}, {"t_end": True},
                      {"dt": "0.5"}, {"t_end": " 7 "}):
            doc = base_doc()
            doc.update(patch)
            with pytest.raises(ConfigInvalid, match=next(iter(patch))):
                config_from_document(doc)

    def test_initial_requires_u_and_v(self):
        doc = base_doc()
        doc["initial"] = {"u": 1.0}
        with pytest.raises(ConfigInvalid, match="initial"):
            config_from_document(doc)

    def test_initial_map_must_cover_active_vertices(self):
        doc = base_doc()
        doc["initial"]["u"] = {"x1": 1.0}
        with pytest.raises(ConfigInvalid, match="missing active"):
            config_from_document(doc)

    def test_initial_must_be_nonnegative(self):
        doc = base_doc()
        doc["initial"]["v"] = -0.5
        with pytest.raises(ConfigInvalid, match="nonnegative"):
            config_from_document(doc)

    def test_dirichlet_scalar_expands_with_zero_boundary(self):
        cfg = config_from_document(dirichlet_doc())
        assert cfg.initial_u.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_dirichlet_nonzero_boundary_rejected(self):
        doc = dirichlet_doc()
        doc["initial"]["u"] = {"x1": 1.0, "x2": 1.0, "x3": 1.0, "x4": 0.5, "x5": 0.0}
        with pytest.raises(ConfigInvalid, match="boundary"):
            config_from_document(doc)


class TestSweepSpec:
    def test_axes_normalized_and_sorted(self):
        doc = base_doc()
        doc["sweep"] = {
            "grid": {
                "a2": {"start": 0.5, "stop": 1.5, "count": 3},
                "a1": [2.0, 1.0],
            }
        }
        spec = sweep_spec_from_document(doc)
        assert list(spec["axes"]) == ["a1", "a2"]
        assert spec["axes"]["a2"] == [0.5, 1.0, 1.5]
        assert spec["t_end"] == 200.0 and spec["max_points"] == 2000

    def test_grid_validation(self):
        for grid in (
            {},
            {"zz": [1.0]},
            {"a1": []},
            {"a1": [0.0]},
            {"a1": {"start": 1.0, "stop": 2.0}},
            {"a1": {"start": 1.0, "stop": 2.0, "count": 2.5}},
            {"a1": {"start": 1.0, "stop": 2.0, "count": True}},
            {"a1": {"start": True, "stop": 2.0, "count": 3}},
            {"a1": [1.0, True]},
            {"a1": {"start": "1", "stop": "2", "count": "3"}},
            {"a1": {"start": 1.0, "stop": 2.0, "count": "3"}},
            {"a1": [1.0, "2"]},
        ):
            doc = base_doc()
            doc["sweep"] = {"grid": grid}
            with pytest.raises(ConfigInvalid):
                sweep_spec_from_document(doc)
        for budget in ({"max_points": 2.7}, {"max_points": True}, {"t_end": True},
                       {"tol": False}, {"max_points": "10"}, {"t_end": "200"}):
            doc = base_doc()
            doc["sweep"] = {"grid": {"a1": [1.0]}, **budget}
            with pytest.raises(ConfigInvalid, match=next(iter(budget))):
                sweep_spec_from_document(doc)
        doc = base_doc()     # an integral float is an integer
        doc["sweep"] = {"grid": {"a1": {"start": 1.0, "stop": 2.0, "count": 3.0}},
                        "max_points": 9.0}
        spec = sweep_spec_from_document(doc)
        assert spec["axes"]["a1"] == [1.0, 1.5, 2.0] and spec["max_points"] == 9

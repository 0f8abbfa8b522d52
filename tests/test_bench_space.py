"""Typed parameter spaces and declarative sweep grids."""

import json

import pytest

from repro.bench import Grid, Param, load_grid, parse_grid
from repro.bench.space import Axis, expand_grid
from repro.errors import ConfigError


class TestParam:
    def test_coerce_int(self):
        assert Param("n", "int", 4).coerce("7") == 7

    def test_coerce_float_from_int(self):
        value = Param("f", "float", 1.0).coerce(3)
        assert value == 3.0 and isinstance(value, float)

    def test_coerce_bool_strings(self):
        param = Param("b", "bool", False)
        assert param.coerce("true") is True
        assert param.coerce("0") is False
        assert param.coerce(True) is True

    def test_bool_rejects_garbage(self):
        with pytest.raises(ConfigError):
            Param("b", "bool", False).coerce("maybe")

    def test_int_normalizes_bool(self):
        value = Param("n", "int", 0).coerce(True)
        assert value == 1 and not isinstance(value, bool)

    def test_choices_enforced(self):
        param = Param("dim", "int", 16, choices=(16, 64))
        assert param.coerce(64) == 64
        with pytest.raises(ConfigError):
            param.coerce(32)

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError):
            Param("x", "complex")

    def test_uncoercible_value(self):
        with pytest.raises(ConfigError):
            Param("n", "int", 0).coerce("not-a-number")


class TestExpandGrid:
    def test_plain_cross_product(self):
        grid = Grid().axis("a", 1, 2).axis("b", "x", "y")
        cells = grid.cells()
        assert len(cells) == 4
        assert {"a": 1, "b": "x"} in cells
        assert {"a": 2, "b": "y"} in cells

    def test_conditional_axis_only_applies_where_condition_holds(self):
        grid = (
            Grid()
            .axis("bench", "prefetch", "hotpath")
            .axis("lookahead", 0, 2, when={"bench": "prefetch"})
        )
        cells = grid.cells()
        # prefetch fans out over lookahead; hotpath collapses to one cell.
        assert len(cells) == 3
        prefetch = [c for c in cells if c["bench"] == "prefetch"]
        hotpath = [c for c in cells if c["bench"] == "hotpath"]
        assert sorted(c["lookahead"] for c in prefetch) == [0, 2]
        assert hotpath == [{"bench": "hotpath"}]

    def test_nested_conditionals(self):
        grid = (
            Grid()
            .axis("bench", "a", "b")
            .axis("mode", "fast", "slow", when={"bench": "a"})
            .axis("depth", 1, 2, when={"mode": "slow"})
        )
        with pytest.raises(ConfigError):
            # "depth" conditions on "mode", which bench=b cells lack.
            grid.cells()

    def test_nested_conditionals_with_full_chain(self):
        grid = (
            Grid()
            .axis("mode", "slow")
            .axis("depth", 1, 2, when={"mode": "slow"})
            .axis("width", 8, 16, when={"depth": [2]})
        )
        cells = grid.cells()
        # depth=1 | depth=2/width=8 | depth=2/width=16
        assert len(cells) == 3
        assert {"mode": "slow", "depth": 1} in cells
        assert {"mode": "slow", "depth": 2, "width": 16} in cells

    def test_never_matching_condition_collapses_axis(self):
        grid = (
            Grid()
            .axis("bench", "a")
            .axis("k", 1, 2, when={"bench": "never"})
        )
        # the axis applies nowhere -> the cell passes through untouched
        assert grid.cells() == [{"bench": "a"}]

    def test_dedup_keeps_first_occurrence(self):
        axes = [
            Axis("a", (1,)),
            Axis("b", (1, 2), when=(("a", (99,)),)),
        ]
        # condition never holds -> both b-values collapse to the same cell
        cells = expand_grid(axes)
        assert cells == [{"a": 1}]

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ConfigError):
            expand_grid([Axis("a", (1,)), Axis("a", (2,))])

    def test_a_name_may_repeat_under_disjoint_conditions(self):
        grid = (
            Grid()
            .axis("bench", "a", "b", "c")
            .axis("workers", 4, 16, when={"bench": "a"})
            .axis("workers", 1, when={"bench": "b"})
        )
        assert grid.cells() == [
            {"bench": "a", "workers": 4},
            {"bench": "a", "workers": 16},
            {"bench": "b", "workers": 1},
            {"bench": "c"},
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            Axis("a", ())


class TestParseGrid:
    def test_inline_with_condition(self):
        grid = parse_grid("bench=prefetch,hotpath; lookahead[bench=prefetch]=0,2,4")
        cells = grid.cells()
        assert len(cells) == 4
        assert {"bench": "hotpath"} in cells
        assert {"bench": "prefetch", "lookahead": 4} in cells

    def test_type_inference(self):
        grid = parse_grid("n=1,2; f=0.5; flag=true,false; s=abc")
        cells = grid.cells()
        cell = cells[0]
        assert isinstance(cell["n"], int)
        assert isinstance(cell["f"], float)
        assert isinstance(cell["flag"], bool)
        assert cell["s"] == "abc"

    def test_pipe_separated_condition_values(self):
        grid = parse_grid("bench=a,b,c; k[bench=a|b]=1,2")
        cells = grid.cells()
        assert {"bench": "c"} in cells
        assert {"bench": "a", "k": 1} in cells
        assert {"bench": "b", "k": 2} in cells
        assert len(cells) == 5

    def test_unclosed_condition_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid("k[bench=a=1,2")

    def test_clause_without_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid("bench")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid("; ;")

    def test_no_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid("a=")


class TestLoadGrid:
    def test_json_roundtrip(self, tmp_path):
        payload = {
            "name": "ci-smoke",
            "axes": [
                {"name": "bench", "values": ["prefetch", "hotpath"]},
                {
                    "name": "lookahead",
                    "values": [0, 2],
                    "when": {"bench": ["prefetch"]},
                },
            ],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        grid = load_grid(path)
        assert grid.name == "ci-smoke"
        assert len(grid.cells()) == 3

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_grid(path)

    def test_missing_axes_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ConfigError):
            load_grid(path)

    def test_axis_without_values_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"axes": [{"name": "a"}]}))
        with pytest.raises(ConfigError):
            load_grid(path)

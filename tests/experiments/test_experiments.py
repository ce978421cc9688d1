"""Unit tests for the experiment framework (registry, scaling, drivers).

Driver outputs are exercised at tiny scale; the full qualitative-shape
checks live in the benchmarks.
"""

import pytest

from repro.experiments.common import (
    ExperimentResult,
    resolve_scale,
    scale_shape,
    shape_for_scale,
)
from repro.experiments.registry import ABLATIONS, EXPERIMENTS, get_driver, run_experiment
from repro.model.torus import TorusShape


class TestScaling:
    def test_resolve_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale(None) == "small"
        assert resolve_scale("tiny") == "tiny"

    def test_resolve_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert resolve_scale(None) == "full"

    def test_resolve_scale_invalid(self):
        with pytest.raises(ValueError):
            resolve_scale("huge")

    def test_scale_shape_preserves_ratio(self):
        shape, div = scale_shape(TorusShape.parse("32x32x16"), 512)
        assert div == 4
        assert shape.dims == (8, 8, 4)

    def test_scale_shape_noop_when_small(self):
        shape, div = scale_shape(TorusShape.parse("8x8"), 512)
        assert div == 1
        assert shape.dims == (8, 8)

    def test_scale_shape_preserves_mesh_flags(self):
        shape, _ = scale_shape(TorusShape.parse("16x16x8M"), 128)
        assert shape.torus == (True, True, False)

    def test_scale_shape_floors_at_two(self):
        shape, _ = scale_shape(TorusShape.parse("40x32x16"), 64)
        assert min(shape.dims) >= 2

    def test_scale_shape_warns_when_bottomed_out(self):
        # 2x2x2 = 8 nodes can't be reduced below all-2 dims, so a
        # budget of 4 is unreachable: the caller must be told.
        with pytest.warns(UserWarning, match="bottomed out.*max_nodes=4"):
            shape, _ = scale_shape(TorusShape.parse("2x2x2"), 4)
        assert shape.dims == (2, 2, 2)

    def test_scale_shape_no_warning_when_it_fits(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scale_shape(TorusShape.parse("32x32x16"), 512)

    def test_shape_for_scale_tiers(self):
        s, tier = shape_for_scale(TorusShape.parse("4x4"), "tiny")
        assert tier == "A" and s.dims == (4, 4)
        s, tier = shape_for_scale(TorusShape.parse("32x32x16"), "tiny")
        assert tier == "B" and s.nnodes <= 128


class TestRegistry:
    def test_eleven_paper_experiments(self):
        # One driver per table and figure in the paper's evaluation.
        assert len(EXPERIMENTS) == 11

    def test_ablations_and_extensions(self):
        # five ablations + scaling study
        assert len(ABLATIONS) == 6

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_driver("nope")

    def test_ids_match_modules(self):
        for eid in ("tab1_symmetric", "fig7_compare_4096"):
            assert callable(get_driver(eid))


class TestResultType:
    def test_row_by_and_column(self):
        r = ExperimentResult("x", "t", ["a", "b"], rows=[{"a": 1, "b": 2}])
        assert r.row_by("a", 1)["b"] == 2
        assert r.column("b") == [2]
        with pytest.raises(KeyError):
            r.row_by("a", 9)

    def test_row_by_error_lists_available_keys(self):
        r = ExperimentResult(
            "x", "t", ["a", "b"], rows=[{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        )
        with pytest.raises(KeyError, match=r"no row with a=9.*\[1, 3\]"):
            r.row_by("a", 9)

    def test_render_contains_id(self):
        r = ExperimentResult("myexp", "title", ["a"], rows=[{"a": 1}])
        assert "[myexp]" in r.render()


class TestDriversTiny:
    """Each driver runs end-to-end at tiny scale and yields sane rows."""

    @pytest.mark.parametrize(
        "exp_id",
        ["fig5_vmesh_pred", "tab1_symmetric", "fig1_ar_midplane"],
    )
    def test_driver_runs(self, exp_id):
        result = run_experiment(exp_id, scale="tiny")
        assert result.rows
        assert result.exp_id == exp_id
        for row in result.rows:
            for col in result.columns:
                assert col in row

    def test_fig2_has_model_column(self):
        result = run_experiment("fig2_ar_4096", scale="tiny")
        assert all(v > 0 for v in result.column("Eq.3 % of peak"))

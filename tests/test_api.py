"""The stable ``repro.api`` facade and the AnalysisConfig migration."""

import numpy as np
import pytest

from repro import api
from repro.core.config import AnalysisConfig, resolve_config
from repro.core.cross_validation import relative_error_curve
from repro.core.predictability import analyze_predictability
from repro.experiments import table2_quadrants

CONFIG = AnalysisConfig(k_max=5, seed=7)


@pytest.fixture(scope="module")
def dataset():
    _, ds = api.collect("spec.gzip", n_intervals=12, seed=7, scale="tiny")
    return ds


class TestAnalysisConfig:
    def test_defaults_match_the_paper(self):
        config = AnalysisConfig()
        assert (config.k_max, config.folds) == (50, 10)
        assert (config.seed, config.min_leaf) == (0, 1)

    def test_frozen_and_hashable(self):
        config = AnalysisConfig()
        with pytest.raises(AttributeError):
            config.k_max = 10
        assert AnalysisConfig() in {config}

    def test_replace_returns_modified_copy(self):
        config = AnalysisConfig()
        assert config.replace(seed=3) == AnalysisConfig(seed=3)
        assert config.seed == 0

    @pytest.mark.parametrize("bad", [dict(k_max=0), dict(folds=1),
                                     dict(min_leaf=0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            AnalysisConfig(**bad)


class TestLegacyKwargs:
    """Loose k_max/folds/seed kwargs still work, warn, and agree."""

    def test_resolve_config_merges_and_warns(self):
        with pytest.warns(DeprecationWarning, match="k_max, seed"):
            merged = resolve_config(None, k_max=8, seed=3, caller="f")
        assert merged == AnalysisConfig(k_max=8, seed=3)

    def test_resolve_config_silent_without_legacy_kwargs(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_config(CONFIG) is CONFIG
            assert resolve_config(None) == AnalysisConfig()

    def test_curve_identical_under_both_spellings(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((30, 4))
        y = rng.random(30)
        with pytest.warns(DeprecationWarning):
            legacy = relative_error_curve(matrix, y, k_max=6, folds=5,
                                          seed=3)
        modern = relative_error_curve(
            matrix, y, config=AnalysisConfig(k_max=6, folds=5, seed=3))
        assert np.array_equal(legacy.re, modern.re)
        assert legacy.k_opt == modern.k_opt

    def test_analysis_identical_under_both_spellings(self, dataset):
        with pytest.warns(DeprecationWarning):
            legacy = analyze_predictability(dataset, k_max=5, seed=7)
        modern = analyze_predictability(dataset, config=CONFIG)
        assert legacy.summary() == modern.summary()
        assert np.array_equal(legacy.curve.re, modern.curve.re)


class TestFacade:
    def test_collect_names_the_dataset(self, dataset):
        assert dataset.workload_name == "spec.gzip"
        assert dataset.n_intervals == 12

    def test_analyze_matches_collect_plus_analyze_dataset(self, dataset):
        one_call = api.analyze("spec.gzip", config=CONFIG, n_intervals=12,
                               scale="tiny")
        two_calls = api.analyze_dataset(dataset, config=CONFIG)
        assert one_call.summary() == two_calls.summary()
        assert np.array_equal(one_call.curve.re, two_calls.curve.re)

    def test_analyze_is_deterministic(self):
        first = api.analyze("spec.gzip", config=CONFIG, n_intervals=12,
                            scale="tiny")
        second = api.analyze("spec.gzip", config=CONFIG, n_intervals=12,
                             scale="tiny")
        assert first.summary() == second.summary()

    def test_census_matches_direct_experiment_run(self):
        names = ["spec.gzip", "spec.art"]
        via_api = api.census(names, config=CONFIG, n_intervals=12)
        direct = table2_quadrants.run(workloads=names, seed=CONFIG.seed,
                                      k_max=CONFIG.k_max, n_intervals=12)
        assert table2_quadrants.render(via_api) == \
            table2_quadrants.render(direct)

    def test_profile_reports_every_stage(self):
        result = api.profile("spec.gzip", config=CONFIG, n_intervals=12,
                             scale="tiny")
        assert result.workloads == ("spec.gzip",)
        assert result.jobs == 1
        assert "job/analyze/cv/fit.tree" in result.stage_names()
        assert "job/pipeline.collect" in result.stage_names()
        report = result.report(top=3)
        assert "per-stage breakdown" in report
        assert "top 3 slowest spans" in report

    def test_sweep_defaults_to_the_generated_fleet_space(self, tmp_path):
        space = api.SweepSpace(workloads=("spec.gzip", "spec.art"),
                               interval_instructions=(10_000_000,),
                               seeds=(7,))
        outcome = api.sweep(space, sweep_dir=tmp_path / "sweep",
                            shards=2)
        assert isinstance(outcome, api.SweepOutcome)
        assert outcome.n_points == 2
        assert outcome.report.startswith("sweep report")
        # Omitting the space means the full generated fleet space.
        from repro.sweep import default_space
        assert default_space().full_size == 1350

    def test_facade_exports_are_importable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

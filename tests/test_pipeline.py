"""End-to-end tests of the ZeroED pipeline."""

import pytest

from repro.config import ZeroEDConfig
from repro.core.pipeline import ZeroED
from repro.errors import ConfigError
from repro.ml.metrics import score_masks


class TestPipelineEndToEnd:
    def test_detects_errors_on_small_hospital(self, small_hospital, fast_config):
        result = ZeroED(fast_config).detect(small_hospital.dirty)
        prf = result.score(small_hospital.mask)
        assert prf.f1 > 0.3
        assert prf.precision > 0.3

    def test_mask_shape_matches_table(self, small_hospital, fast_config):
        result = ZeroED(fast_config).detect(small_hospital.dirty)
        assert result.mask.n_rows == small_hospital.dirty.n_rows
        assert result.mask.attributes == small_hospital.dirty.attributes

    def test_deterministic(self, small_beers, fast_config):
        a = ZeroED(fast_config).detect(small_beers.dirty)
        b = ZeroED(fast_config).detect(small_beers.dirty)
        assert a.mask == b.mask

    def test_stages_recorded(self, small_hospital, fast_config):
        result = ZeroED(fast_config).detect(small_hospital.dirty)
        names = [s.name for s in result.stages]
        for expected in (
            "stats", "correlation", "criteria", "features", "sampling",
            "guidelines", "labeling", "training_data", "train_detector",
            "predict",
        ):
            assert expected in names

    def test_token_accounting_nonzero(self, small_hospital, fast_config):
        result = ZeroED(fast_config).detect(small_hospital.dirty)
        assert result.input_tokens > 0
        assert result.output_tokens > 0
        assert result.n_llm_requests > 0

    def test_details_populated(self, small_hospital, fast_config):
        result = ZeroED(fast_config).detect(small_hospital.dirty)
        assert set(result.details["n_sampled"]) == set(
            small_hospital.dirty.attributes
        )
        training = result.details["training"]
        assert any(v["propagated"] > 0 for v in training.values())

    def test_config_overrides_kwarg(self):
        z = ZeroED(label_rate=0.02, seed=9)
        assert z.config.label_rate == 0.02
        assert z.config.seed == 9


class TestAblations:
    @pytest.mark.parametrize("component", ["guid", "crit", "corr", "veri"])
    def test_ablated_pipeline_runs(self, small_hospital, fast_config, component):
        config = fast_config.ablated(component)
        result = ZeroED(config).detect(small_hospital.dirty)
        assert result.mask.n_rows == small_hospital.dirty.n_rows

    def test_unknown_ablation(self, fast_config):
        with pytest.raises(ConfigError):
            fast_config.ablated("everything")

    def test_wo_guid_disables_guideline_tokens(self, small_hospital, fast_config):
        config = fast_config.ablated("guid")
        result = ZeroED(config).detect(small_hospital.dirty)
        guideline_stage = next(
            s for s in result.stages if s.name == "guidelines"
        )
        assert guideline_stage.input_tokens == 0

    def test_wo_crit_skips_criteria_requests(self, small_hospital, fast_config):
        config = fast_config.ablated("crit")
        result = ZeroED(config).detect(small_hospital.dirty)
        criteria_stage = next(s for s in result.stages if s.name == "criteria")
        assert criteria_stage.input_tokens == 0


class TestConfig:
    def test_invalid_label_rate(self):
        with pytest.raises(ConfigError):
            ZeroEDConfig(label_rate=0.0)

    def test_invalid_clustering(self):
        with pytest.raises(ConfigError):
            ZeroEDConfig(clustering="spectral")

    @pytest.mark.parametrize(
        "bad",
        [
            {"mlp_hidden": 0},
            {"mlp_epochs": 0},
            {"mlp_lr": 0.0},
            {"mlp_lr": -1.0},
            {"mlp_lr": float("nan")},
            {"mlp_lr": float("inf")},
        ],
    )
    def test_invalid_mlp_settings(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ZeroEDConfig(**bad)

    def test_invalid_mlp_setting_fails_before_any_llm_call(
        self, small_hospital, llm
    ):
        # mlp_hidden=0 used to spend the whole fit's tokens and then die
        # in He initialisation.
        with pytest.raises(ConfigError, match="mlp_hidden"):
            ZeroED(ZeroEDConfig(seed=0), llm=llm, mlp_hidden=0).fit(
                small_hospital.dirty
            )
        assert llm.ledger.summary()["total_tokens"] == 0

    def test_clusters_for_budget(self):
        config = ZeroEDConfig(label_rate=0.05)
        assert config.clusters_for(1000) == 50
        assert config.clusters_for(10) == config.min_cluster_count
        assert config.clusters_for(100_000) == config.max_cluster_count

    def test_llm_model_selects_profile(self, small_hospital, fast_config):
        import dataclasses

        config = dataclasses.replace(fast_config, llm_model="llama3.1-8b")
        z = ZeroED(config)
        assert z.llm.model_name == "llama3.1-8b"


class TestClusteringVariants:
    @pytest.mark.parametrize("method", ["kmeans", "agglomerative", "random"])
    def test_all_sampling_methods_run(self, small_beers, fast_config, method):
        import dataclasses

        config = dataclasses.replace(fast_config, clustering=method)
        result = ZeroED(config).detect(small_beers.dirty)
        prf = score_masks(result.mask, small_beers.mask)
        assert prf.f1 >= 0.0  # runs to completion with a valid mask

import pytest

from patseg.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
    serialize_config,
)

SAMPLE = """\
[data]
source = corpora/source
target_train = corpora/train
target_dev = corpora/dev

[features]
groups = CF,LNG,PMI

[train]
mode = easy
l2 = 0.5
max_iterations = 120

[knowledge]
archive = kb
sim_k = 20

[curve]
sizes = 1000,2000
modes = target,easy

[output]
model = out/model.crf
report = out/report.csv
"""


class TestParsing:
    def test_values(self):
        cfg = parse_config(SAMPLE)
        assert cfg.source == "corpora/source"
        assert cfg.groups == ("CF", "LNG", "PMI")
        assert cfg.mode == "easy"
        assert cfg.l2 == 0.5
        assert cfg.max_iterations == 120
        assert cfg.sim_k == 20
        assert cfg.curve_sizes == (1000, 2000)
        assert cfg.curve_modes == ("target", "easy")

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.groups == ("CF",)
        assert cfg.mode == "target"
        assert cfg.tolerance == 1e-6
        assert cfg.source_format == "tagged"

    def test_cf_forced_on(self):
        cfg = parse_config("[features]\ngroups = LNG\n")
        assert cfg.groups == ("CF", "LNG")

    def test_overrides_win(self):
        cfg = parse_config(SAMPLE, {"train.mode": "target", "train.l2": "0.25"})
        assert cfg.mode == "target"
        assert cfg.l2 == 0.25

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[optimizer]\nlr = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nlearning_rate = 1\n")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nmode = blend\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nl2 = lots\n")

    def test_unknown_override(self):
        with pytest.raises(ConfigError):
            parse_config("", {"train.warmup": "1"})


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg = parse_config(SAMPLE)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_serialize_is_idempotent(self):
        cfg = parse_config(SAMPLE)
        once = serialize_config(cfg)
        twice = serialize_config(parse_config(once))
        assert once == twice

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SAMPLE, encoding="utf-8")
        cfg = load_config(path)
        (tmp_path / "echo.cfg").write_text(serialize_config(cfg), encoding="utf-8")
        assert load_config(tmp_path / "echo.cfg") == cfg


class TestValidation:
    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="blend")
        with pytest.raises(ConfigError):
            RunConfig(sim_k=0)
        with pytest.raises(ConfigError):
            RunConfig(source_format="xml")

    @pytest.mark.parametrize("key, raw", [
        ("l2", "-1"), ("l2", "inf"), ("l2", "nan"),
        ("tolerance", "-1e-6"), ("tolerance", "inf"), ("tolerance", "nan"),
        ("feature_cutoff", "0"), ("feature_cutoff", "-3"),
    ])
    def test_settings_that_cannot_train_name_their_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config(f"[train]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config("", {f"train.{key}": raw})

    def test_zero_l2_and_tolerance_are_accepted(self):
        cfg = parse_config("[train]\nl2 = 0\ntolerance = 0\nfeature_cutoff = 1\n")
        assert (cfg.l2, cfg.tolerance, cfg.feature_cutoff) == (0.0, 0.0, 1)

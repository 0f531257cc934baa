import pytest

from patseg.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
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
        assert cfg.train.l2 == 0.5
        assert cfg.train.max_iterations == 120
        assert cfg.sim_k == 20
        assert cfg.curve_sizes == (1000, 2000)
        assert cfg.curve_modes == ("target", "easy")

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.groups == ("CF",)
        assert cfg.mode == "target"
        assert cfg.train.tolerance == 1e-6
        assert cfg.source_format == "tagged"

    def test_cf_forced_on(self):
        cfg = parse_config("[features]\ngroups = LNG\n")
        assert cfg.groups == ("CF", "LNG")

    def test_overrides_win(self):
        cfg = parse_config(SAMPLE, {"train.mode": "target", "train.l2": "0.25"})
        assert cfg.mode == "target"
        assert cfg.train.l2 == 0.25

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

    def test_percent_signs_are_literal(self):
        cfg = parse_config("[data]\nsource = /tmp/100%/src\ntarget_train = %(x)s\ntarget_dev = 50%%\n")
        assert (cfg.source, cfg.target_train, cfg.target_dev) == ("/tmp/100%/src", "%(x)s", "50%%")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nmode = transit\n",
        "[DEFAULT]\nmode = transit\n\n[train]\nl2 = 0.5\n",
    ])
    def test_default_section_with_keys_is_refused(self, text):
        """Its keys would otherwise be dropped, or copied into every section."""
        with pytest.raises(ConfigError, match=r"^config section \[DEFAULT\] .* \(mode\)"):
            parse_config(text)

    def test_empty_default_section_is_accepted(self):
        assert parse_config("[DEFAULT]\n\n[train]\nmode = easy\n").mode == "easy"


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SAMPLE, encoding="utf-8")
        assert load_config(path) == parse_config(SAMPLE)

    def test_byte_order_mark_is_not_part_of_the_text(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + SAMPLE.encode("utf-8"))
        assert load_config(path) == parse_config(SAMPLE)


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
        ("max_iterations", "0"),
    ])
    def test_settings_that_cannot_train_name_their_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config(f"[train]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config("", {f"train.{key}": raw})

    def test_zero_l2_and_tolerance_are_accepted(self):
        cfg = parse_config("[train]\nl2 = 0\ntolerance = 0\nfeature_cutoff = 1\n")
        assert (cfg.train.l2, cfg.train.tolerance, cfg.train.feature_cutoff) == (0.0, 0.0, 1)

"""Config dataclasses and the flat key/value config format."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightleak import ChannelConfig, SymbolAlphabet
from lightleak.config import build_from_values, parse_config_text
from lightleak.errors import ConfigError

CHANNEL_FLOAT_FIELDS = [f.name for f in dataclasses.fields(ChannelConfig)
                        if isinstance(f.default, float)]
FLOAT_FIELDS = CHANNEL_FLOAT_FIELDS + [f.name for f in dataclasses.fields(SymbolAlphabet)
                                       if isinstance(f.default, float)]
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestChannelConfig:
    def test_defaults_match_link_parameters(self):
        cfg = ChannelConfig()
        assert cfg.pwm_frequency == 20_000.0
        assert cfg.sample_rate == 10_000_000.0
        assert cfg.sensor_full_scale_frequency == 800_000.0
        assert cfg.sensor_time_constant == 20e-6
        assert cfg.distance == 0.1
        assert cfg.fade_duration == 0.4
        assert cfg.max_command_rate == 10.0

    @pytest.mark.parametrize("bad", [
        dict(pwm_frequency=0.0),
        dict(sample_rate=1_000_000.0),  # under 4x full-scale oversampling
        dict(angle=math.pi / 2),
        dict(angle=-0.1),
        dict(distance=0.0),
        dict(noise_sigma=-0.01),
        dict(sensor_time_constant=-1e-6),
        dict(fade_duration=-0.1),
        dict(max_command_rate=0.0),
        dict(rng_seed=-1),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            ChannelConfig(**bad)

    @given(key=st.sampled_from(CHANNEL_FLOAT_FIELDS), value=st.sampled_from(NON_FINITE))
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ChannelConfig(**{key: value})

    def test_replace_revalidates(self):
        cfg = ChannelConfig()
        with pytest.raises(ConfigError):
            cfg.replace(distance=-2.0)

    def test_geometric_gain(self):
        assert ChannelConfig().geometric_gain == pytest.approx(1.0)
        assert ChannelConfig(distance=0.2).geometric_gain == pytest.approx(0.25)


class TestSymbolAlphabet:
    def test_defaults_are_the_demonstrated_pair(self):
        alphabet = SymbolAlphabet()
        assert (alphabet.level_zero, alphabet.level_delimiter,
                alphabet.level_one) == (135, 137, 140)
        assert alphabet.separation == 5

    @pytest.mark.parametrize("levels", [
        (140, 135, 137),   # zero above one
        (135, 140, 145),   # delimiter not between
        (135, 135, 140),   # degenerate
        (-1, 100, 137),
        (135, 300, 137),
    ])
    def test_ordering_enforced(self, levels):
        zero, one, delim = levels
        with pytest.raises(ConfigError):
            SymbolAlphabet(level_zero=zero, level_one=one, level_delimiter=delim)

    def test_symbol_period_positive(self):
        with pytest.raises(ConfigError):
            SymbolAlphabet(symbol_period=0.0)

    def test_symbol_period_not_nan(self):
        # +inf stays valid: the never-sending limit, of zero throughput
        with pytest.raises(ConfigError):
            SymbolAlphabet(symbol_period=math.nan)


class TestConfigText:
    def test_parse_and_split(self):
        values = parse_config_text(
            "# a comment\n"
            "noise_sigma = 0.01\n"
            "level_one=150  # trailing comment\n"
            "window_length = 2048\n"
            "rng_seed = 9\n")
        config, alphabet, extra = build_from_values(values)
        assert config.noise_sigma == 0.01
        assert config.rng_seed == 9
        assert alphabet.level_one == 150
        assert extra == {"window_length": 2048}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("not_a_field = 3\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="needs a number"):
            parse_config_text("noise_sigma = lots\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="needs an integer"):
            parse_config_text("rng_seed = 1.5\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("noise_sigma 0.01\n")

    @given(key=st.sampled_from(FLOAT_FIELDS),
           text=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e999"]))
    def test_non_finite_number(self, key, text):
        with pytest.raises(ConfigError, match=f"{key} needs a finite number"):
            build_from_values(parse_config_text(f"{key} = {text}\n"))

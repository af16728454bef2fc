"""Unit tests for the configuration substrate (SENSEI config / Libsim sessions)."""

import pytest

from repro.util import Configuration, ConfigError


@pytest.fixture
def cfg():
    return Configuration(
        {
            "analysis": {
                "histogram": {"bins": 32, "enabled": True},
                "slice": {"origin": [0.5, 0.5, 0.5], "resolution": "1920x1080"},
            },
            "timestep": 0.01,
        }
    )


def test_dotted_get(cfg):
    assert cfg.get("analysis.histogram.bins") == 32
    assert cfg.get("timestep") == 0.01


def test_get_default_for_missing(cfg):
    assert cfg.get("analysis.missing", "d") == "d"
    assert cfg.get("no.such.path", 7) == 7


def test_require_raises_for_missing(cfg):
    with pytest.raises(ConfigError):
        cfg.require("analysis.nothing")
    assert cfg.require("analysis.histogram.bins") == 32


def test_typed_getters(cfg):
    assert cfg.get_int("analysis.histogram.bins") == 32
    assert cfg.get_float("timestep") == pytest.approx(0.01)
    assert cfg.get_bool("analysis.histogram.enabled") is True
    assert cfg.get_list("analysis.slice.origin") == [0.5, 0.5, 0.5]


def test_typed_getter_errors(cfg):
    with pytest.raises(ConfigError):
        cfg.get_int("analysis.slice.resolution")
    with pytest.raises(ConfigError):
        cfg.get_bool("timestep")
    with pytest.raises(ConfigError):
        cfg.get_list("timestep")
    with pytest.raises(ConfigError):
        cfg.get_int("missing.path")


def test_bool_string_coercion():
    c = Configuration({"a": "true", "b": "off", "c": "Yes"})
    assert c.get_bool("a") is True
    assert c.get_bool("b") is False
    assert c.get_bool("c") is True


def test_set_creates_nested(cfg):
    cfg.set("new.deep.key", 5)
    assert cfg.get("new.deep.key") == 5


def test_json_roundtrip(cfg):
    again = Configuration.from_json(cfg.to_json())
    assert again.get("analysis.histogram.bins") == 32
    assert again.as_dict() == cfg.as_dict()


def test_from_json_rejects_non_object():
    with pytest.raises(ConfigError):
        Configuration.from_json("[1, 2, 3]")
    with pytest.raises(ConfigError):
        Configuration.from_json("{not json")


def test_contains(cfg):
    assert "analysis.histogram" in cfg
    assert "analysis.zzz" not in cfg


def test_from_file(tmp_path, cfg):
    p = tmp_path / "session.json"
    p.write_text(cfg.to_json())
    loaded = Configuration.from_file(p)
    assert loaded.get("analysis.slice.resolution") == "1920x1080"

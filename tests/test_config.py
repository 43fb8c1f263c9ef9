"""Flat dotted-key config parsing and typed getters."""

import hashlib

import pytest

from ifsdim.config import ConfigError, RunConfig, parse_config


def test_parse_basics():
    raw = parse_config(
        """
        # a comment line
        system.family = golden        # trailing comment
        scan.levels = 2:12

        scan.levels = 2:6
        """
    )
    assert raw == {"system.family": "golden", "scan.levels": "2:6"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("a.b = 1\nno equals sign here\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config(" = value\n")


def test_canonical_text_is_sorted_and_hashing_is_stable():
    cfg1 = RunConfig({"b.two": "2", "a.one": "1"})
    cfg2 = RunConfig({"a.one": "1", "b.two": "2"})
    assert cfg1.canonical_text() == "a.one = 1\nb.two = 2\n"
    assert cfg1.digest() == cfg2.digest()
    assert cfg1.digest() != RunConfig({"a.one": "3", "b.two": "2"}).digest()


def test_digest_is_the_sha256_of_the_canonical_text():
    for raw in ({}, {"a.one": "1"}, {"system.family": "cantor", "system.ratios": "0.3, 0.4"}, {"k.text": "é"}):
        cfg = RunConfig(raw)
        assert cfg.digest() == hashlib.sha256(cfg.canonical_text().encode()).hexdigest()


def test_get_int_and_float_ranges():
    cfg = RunConfig({"k.n": "7", "k.x": "0.25", "k.bad": "zebra"})
    assert cfg.get_int("k.n", lo=1, hi=10) == 7
    assert cfg.get_float("k.x") == 0.25
    assert cfg.get_int("k.missing", default=3) == 3
    with pytest.raises(ConfigError, match="expected an integer"):
        cfg.get_int("k.bad")
    with pytest.raises(ConfigError, match="required"):
        cfg.get_int("k.missing")
    with pytest.raises(ConfigError):
        cfg.get_int("k.n", lo=8)
    with pytest.raises(ConfigError):
        cfg.get_float("k.x", lo=0.5)


def test_get_bool_spellings():
    cfg = RunConfig({"a": "yes", "b": "off", "c": "maybe"})
    assert cfg.get_bool("a", default=False) is True
    assert cfg.get_bool("b", default=True) is False
    assert cfg.get_bool("missing", default=True) is True
    with pytest.raises(ConfigError):
        cfg.get_bool("c", default=False)


def test_get_floats_list():
    cfg = RunConfig({"r": "0.5, 0.25,0.125", "empty": " ,"})
    assert cfg.get_floats("r") == (0.5, 0.25, 0.125)
    with pytest.raises(ConfigError):
        cfg.get_floats("empty")


def test_get_levels_range_and_list():
    cfg = RunConfig({"range": "2:5", "list": "1, 4, 9", "unordered": "9, 1, 4", "twice": "2,2", "rev": "5:2"})
    assert cfg.get_levels("range") == [2, 3, 4, 5]
    assert cfg.get_levels("list") == [1, 4, 9]
    assert cfg.get_levels("none", default="3:4") == [3, 4]
    with pytest.raises(ConfigError, match="reversed"):
        cfg.get_levels("rev")
    for key, raw in (("unordered", "9, 1, 4"), ("twice", "2,2")):
        with pytest.raises(ConfigError, match=rf"^{key}: levels must be strictly ascending, got '{raw}'$"):
            cfg.get_levels(key)
    with pytest.raises(ConfigError, match="required"):
        cfg.get_levels("none")


def test_get_levels_bounds_every_level():
    # a range is bounded before it becomes a list: 1:10^15 would not fit
    cfg = RunConfig({"range": "2:5", "list": "9, 1, 4", "huge": "1:1000000000000000"})
    assert cfg.get_levels("range", lo=2, hi=5) == [2, 3, 4, 5]
    with pytest.raises(ConfigError, match="list: must be >= 2, got 1"):
        cfg.get_levels("list", lo=2)
    with pytest.raises(ConfigError, match="list: must be <= 6, got 9"):
        cfg.get_levels("list", hi=6)
    with pytest.raises(ConfigError, match="huge: must be <= 6, got 1000000000000000"):
        cfg.get_levels("huge", lo=1, hi=6)


def test_check_read_names_the_first_unread_key_in_scope():
    cfg = RunConfig({
        "system.family": "golden", "system.size": "3", "scan.levels": "2:4", "scan.tol": "1e-9",
        "bowen.depth": "5", "sample.seed": "1", "out.dir": "x", "other.key": "1",
    })
    cfg.get_str("system.family")
    cfg.get_levels("scan.levels")
    # a getter reads its key even when it falls back to the default
    assert cfg.get_int("scan.depth", default=1) == 1
    assert cfg.has("scan.tol")  # has() alone reads nothing
    # out.* is in scope too: no run reads an out.* key, so a stale one exits 2
    with pytest.raises(ConfigError, match=r"^out.dir: not read for system.family = golden$"):
        cfg.check_read("scan")
    cfg.get_str("out.dir")
    with pytest.raises(ConfigError, match=r"^scan.tol: not read for system.family = golden$"):
        cfg.check_read("scan")
    cfg.get_float("scan.tol", default=1e-10)
    with pytest.raises(ConfigError, match=r"^system.size: not read for system.family = golden$"):
        cfg.check_read("scan")
    cfg.get_int("system.size")
    # another command's section, sample.* and other sections are out of scope
    cfg.check_read("scan")
    with pytest.raises(ConfigError, match=r"^bowen.depth: "):
        cfg.check_read("bowen")
    # unread keys are named in sorted order: a mistyped own-section key first
    typo = RunConfig({"system.family": "golden", "system.a": "0.5", "scan.depht": "3"})
    with pytest.raises(ConfigError, match=r"^scan.depht: not read for system.family = golden$"):
        typo.check_read("scan")


def test_non_finite_numbers_are_refused():
    cfg = RunConfig({"k.inf": "inf", "k.nan": "nan", "k.neg": "-Infinity", "k.big": "1" + "0" * 400})
    for key, shown in (("k.inf", "inf"), ("k.nan", "nan"), ("k.neg", "-inf")):
        with pytest.raises(ConfigError, match=rf"^{key}: must be finite, got {shown}$"):
            cfg.get_float(key)
    with pytest.raises(ConfigError, match=r"^k.inf: expected an integer, got 'inf'$"):
        cfg.get_int("k.inf")
    # an integer has no float range to leave
    assert cfg.get_int("k.big") == 10**400

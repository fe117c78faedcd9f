"""Lane knobs accept unset, ``auto``, ``0`` or ``1`` and reject anything else."""

import pytest

from repro.core import fastlane
from repro.flows import multipath

KNOBS = [
    (fastlane.FASTPATH_ENV, fastlane.fastpath_mode),
    (fastlane.BATCHPATH_ENV, fastlane.batchpath_mode),
    (multipath.FLOWPATH_ENV, multipath.flowpath_mode),
]
IDS = [env for env, _ in KNOBS]


@pytest.mark.parametrize("env,mode", KNOBS, ids=IDS)
def test_unset_and_empty_read_auto(monkeypatch, env, mode):
    monkeypatch.delenv(env, raising=False)
    assert mode() == "auto"
    monkeypatch.setenv(env, " ")
    assert mode() == "auto"


@pytest.mark.parametrize("env,mode", KNOBS, ids=IDS)
@pytest.mark.parametrize("value,expected", [("auto", "auto"), (" AUTO ", "auto"), ("0", "0"), ("1", "1")])
def test_accepted_values(monkeypatch, env, mode, value, expected):
    monkeypatch.setenv(env, value)
    assert mode() == expected


@pytest.mark.parametrize("env,mode", KNOBS, ids=IDS)
@pytest.mark.parametrize("value", ["2", "yes", "off", "01"])
def test_bad_value_raises_naming_variable(monkeypatch, env, mode, value):
    monkeypatch.setenv(env, value)
    with pytest.raises(ValueError) as info:
        mode()
    message = str(info.value)
    assert env in message and repr(value) in message
    for accepted in fastlane.LANE_MODES:
        assert accepted in message

import importlib

import pytest

import semnav


def test_every_public_name_is_its_home_module_object():
    assert len(semnav.__all__) == len(set(semnav.__all__))
    for name in semnav.__all__:
        home = importlib.import_module(f"semnav.{semnav._HOME[name]}")
        assert getattr(semnav, name) is getattr(home, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        semnav.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from semnav import *", namespace)
    assert set(semnav.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(semnav, name) for name in semnav.__all__)


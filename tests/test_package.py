"""The package namespace: every public name, quantum_core's exported on first use."""

import pytest

import bb84_weakrand
from bb84_weakrand import keyrate, probability, quantum_core


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from bb84_weakrand import *", namespace)
    assert set(bb84_weakrand.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(bb84_weakrand.__all__) <= set(dir(bb84_weakrand))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bb84_weakrand.no_such_name
    assert not hasattr(bb84_weakrand, "check_density_matrices")


def test_quantum_core_names_are_its_own_objects():
    shared = [name for name in bb84_weakrand.__all__ if hasattr(quantum_core, name)]
    for name in shared:
        assert getattr(bb84_weakrand, name) is getattr(quantum_core, name)


def test_binary_entropy_is_one_function():
    assert bb84_weakrand.binary_entropy is quantum_core.binary_entropy
    assert quantum_core.binary_entropy is keyrate.binary_entropy
    assert keyrate.binary_entropy is probability.binary_entropy

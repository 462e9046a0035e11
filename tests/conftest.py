"""Shared fixtures: geometry and matrix builds are cached per session.

The larger constructions (q = 8, 16) are expensive enough that every
test module reusing them matters for total suite time.  Tests marked
``slow`` are opt-in gates: they run only with ``LU3Q_SLOW=1``.
"""

import os

import pytest

from lu3q.fields import field_for_order
from lu3q.geometry import enumerate_quadrangle
from lu3q.incidence import build_incidence, build_kim_matrix

_fields = {}
_quads = {}
_mats = {}


def get_field(q):
    if q not in _fields:
        _fields[q] = field_for_order(q)
    return _fields[q]


def get_quad(q):
    if q not in _quads:
        _quads[q] = enumerate_quadrangle(get_field(q))
    return _quads[q]


def get_matrix(q, system):
    key = (q, system)
    if key not in _mats:
        if system == "kim":
            _mats[key] = build_kim_matrix(get_field(q))
        else:
            _mats[key] = build_incidence(get_quad(q), system)
    return _mats[key]


@pytest.fixture(scope="session")
def field():
    return get_field


@pytest.fixture(scope="session")
def quad():
    return get_quad


@pytest.fixture(scope="session")
def matrix():
    return get_matrix


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: opt-in gate, runs only with LU3Q_SLOW=1")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("LU3Q_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="opt-in slow gate: set LU3Q_SLOW=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)

"""Fixtures shared by the test modules."""

from unittest import mock

import pytest

from moe_locality import trace as trace_module


@pytest.fixture(params=[True, False], ids=["extended", "float"])
def extended(request):
    """The fixed-width probability decoder and encoder with their long-double
    paths on, and forced off so that every field goes through float() and
    every text through the per-field format."""
    if request.param and not trace_module._EXTENDED:
        pytest.skip("long double is not the x87 format here")
    with mock.patch.object(trace_module, "_EXTENDED", request.param):
        yield request.param

"""Hybrid threshold policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hybrid import DEFAULT_THRESHOLD, HybridPolicy
from repro.datapath.names import BYTEEXPRESS, PRP


def test_default_threshold_is_paper_suggestion():
    assert DEFAULT_THRESHOLD == 256


def test_below_threshold_inlines():
    assert HybridPolicy().choose(64) == BYTEEXPRESS


def test_at_threshold_inlines():
    assert HybridPolicy().choose(256) == BYTEEXPRESS


def test_above_threshold_prp():
    assert HybridPolicy().choose(257) == PRP


def test_zero_payload_takes_prp():
    assert HybridPolicy().choose(0) == PRP


def test_custom_threshold():
    policy = HybridPolicy(threshold=128)
    assert policy.choose(128) == BYTEEXPRESS
    assert policy.choose(129) == PRP


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        HybridPolicy(threshold=-1)


@given(st.integers(0, 1 << 20))
def test_choice_is_total_and_consistent(n):
    choice = HybridPolicy().choose(n)
    assert choice in (BYTEEXPRESS, PRP)
    assert choice == HybridPolicy().choose(n)

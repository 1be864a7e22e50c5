"""BAR-window comparators (MMIO, coherent PIO): the shared device half."""

import pytest

from repro.datapath import names
from repro.nvme.constants import StatusCode
from repro.pcie.mmio import BYTE_WINDOW_SIZE
from repro.testbed import make_block_testbed
from repro.transfer.bar_window import decode_status


@pytest.mark.parametrize("method", (names.MMIO, names.PIO_COHERENT))
@pytest.mark.parametrize("length", (0, BYTE_WINDOW_SIZE + 1))
def test_invalid_commit_length_decodes_to_invalid_field(method, length):
    """A rejected commit publishes ``status + 1`` like every other
    outcome, so the host's decode reads INVALID_FIELD (not the status
    code one below it)."""
    tb = make_block_testbed(include_mmio=True)
    transfer = tb.method(method)
    profile = transfer.profile
    bar = tb.ssd.bar
    bar.write32(profile.status_reg, 0)
    bar.write32(profile.commit_reg, length)
    assert decode_status(bar.read32(profile.status_reg)) == \
        StatusCode.INVALID_FIELD
    assert transfer.interface.payloads == 0


@pytest.mark.parametrize("method", (names.MMIO, names.PIO_COHERENT))
def test_unpublished_status_decodes_to_internal_error(method):
    tb = make_block_testbed(include_mmio=True)
    profile = tb.method(method).profile
    tb.ssd.bar.write32(profile.status_reg, 0)
    assert decode_status(tb.ssd.bar.read32(profile.status_reg)) == \
        StatusCode.INTERNAL_ERROR


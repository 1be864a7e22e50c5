"""One error type per kind of failure, whichever path a request takes.

The passthrough ioctl refuses a malformed request before submission
(``-EINVAL``) and reports a device failure after it (an NVMe status,
``-EIO`` or a timeout).  Here a refused request raises the same class
through ``passthru`` and through ``IoEngine``, and that class is a
``ValueError``; a device failure raises a ``DeviceError``, which is not.
"""

import pytest

from repro.datapath import names as dp_names
from repro.engine import IoEngine
from repro.faults import DROP_CQE, DROP_DOORBELL, FaultPlan
from repro.host.errors import CommandTimeoutError, DeviceError, DriverError
from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.testbed import make_block_testbed


def _write(size: int) -> PassthruRequest:
    return PassthruRequest(opcode=IoOpcode.WRITE, data=b"x" * size)


#: Requests that can never succeed: (request, method).
REFUSALS = {
    "read_via_byteexpress": (
        PassthruRequest(opcode=IoOpcode.READ, read_len=64),
        dp_names.BYTEEXPRESS),
    "unknown_method": (_write(64), "warp"),
    "empty_write": (_write(0), dp_names.PRP),
    "inline_over_sq_capacity": (_write(70_000), dp_names.BYTEEXPRESS),
    "prp_over_mdts": (_write(2_000_000), dp_names.PRP),
}


def _refusal(call) -> type:
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value)


@pytest.mark.parametrize("name", REFUSALS)
def test_a_refused_request_raises_one_value_error_on_both_paths(name):
    req, method = REFUSALS[name]
    tb = make_block_testbed()
    via_passthru = _refusal(lambda: tb.driver.passthru(req, method=method))
    engine = IoEngine(tb.ssd, tb.driver, queues=tb.driver.io_qids[:1], qd=1)
    if req.is_write:
        via_engine = _refusal(lambda: engine.submit(req.data, method))
    else:
        via_engine = _refusal(lambda: engine.submit_read(
            req.read_len, req.opcode, method=method))
    assert via_passthru is via_engine
    assert issubclass(via_engine, ValueError)
    assert not issubclass(via_engine, DeviceError)


def test_a_method_the_rig_lacks_is_a_driver_error():
    tb = make_block_testbed()
    with pytest.raises(DriverError, match="unknown transfer method 'warp'"):
        tb.method("warp")


def test_a_command_timeout_is_a_device_error():
    tb = make_block_testbed(
        fault_plan=FaultPlan.uniform(1.0, kinds=[DROP_CQE]))
    with pytest.raises(CommandTimeoutError) as exc:
        tb.driver.passthru(_write(64), method=dp_names.BYTEEXPRESS)
    assert isinstance(exc.value, DeviceError)
    assert not isinstance(exc.value, ValueError)


def test_a_failed_admin_create_is_a_device_error():
    # Two lost doorbells on Create-CQ: the abandoned SQE still runs, so
    # the resubmitted Create is refused by the device.
    with pytest.raises(DeviceError) as exc:
        make_block_testbed(
            fault_plan=FaultPlan.scheduled({DROP_DOORBELL: [1, 2]}))
    assert not isinstance(exc.value, ValueError)

"""The host's two kinds of failure, split as the passthrough ioctl splits
them.

A request that can never succeed is refused before submission, as
``-EINVAL`` refuses it: :class:`DriverError`, a :class:`ValueError`,
whichever path (``passthru``, the engine, a codec) refuses it.  A device
that fails a well-formed request fails after submission, as an NVMe
status, ``-EIO`` or a timeout does: :class:`DeviceError`, a
:class:`RuntimeError`.

A leaf module: the datapath table and codecs raise the driver's error
type without importing the driver.
"""


class DriverError(ValueError):
    """A request (or configuration) the host refuses: it can never
    succeed, so retrying it is pointless."""


class DeviceError(RuntimeError):
    """The device or the transport failed a well-formed request."""


class CommandTimeoutError(DeviceError):
    """A command exhausted its retry budget or per-command deadline."""

"""Flash error hierarchy."""

from repro.errors import ReproError


class FlashError(ReproError):
    """Base class for flash-level failures."""


class AddressError(FlashError):
    """A physical address is outside the array geometry."""


class ReadError(FlashError):
    """Reading an erased (never programmed) page."""


class ProgramError(FlashError):
    """Programming a page that is not erased (no in-place update)."""


class ProgramOrderError(FlashError):
    """Pages within a block must be programmed sequentially (Section II-A)."""


class EraseError(FlashError):
    """Erase issued against a bad block."""


class WearOutError(FlashError):
    """A block exceeded its erase endurance and became unreliable."""


class TransientFlashError(FlashError):
    """A recoverable media fault: the operation failed but the chip lives.

    Injected by :class:`repro.fault.FlashFaultInjector`; the log layer
    retries with bounded attempts (remapping programs to a fresh page).
    """


class ProgramFailure(TransientFlashError):
    """A page program failed verify; the page is burned (unusable)."""


class EraseFailure(TransientFlashError):
    """A block erase failed; the block contents are indeterminate."""

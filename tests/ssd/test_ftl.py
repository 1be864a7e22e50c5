"""Page-mapping FTL: mapping, invalidation, GC, write amplification."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.ftl import FtlError, PageMappingFtl
from repro.ssd.nand import NandArray, NandError, NandGeometry


def _ftl(blocks=4, pages=4, dies=(1, 1)):
    nand = NandArray(SimClock(), TimingModel(),
                     NandGeometry(channels=dies[0], ways=dies[1],
                                  blocks_per_die=blocks, pages_per_block=pages,
                                  page_bytes=512))
    return PageMappingFtl(nand)


def test_write_read_roundtrip():
    ftl = _ftl()
    ftl.write(0, b"hello")
    assert ftl.read(0)[:5] == b"hello"


def test_overwrite_returns_latest():
    ftl = _ftl()
    ftl.write(3, b"old")
    ftl.write(3, b"new")
    assert ftl.read(3)[:3] == b"new"


def test_read_unwritten_raises():
    with pytest.raises(FtlError):
        _ftl().read(0)


def test_lpn_bounds():
    ftl = _ftl()
    with pytest.raises(FtlError):
        ftl.write(ftl.logical_capacity_pages, b"x")
    with pytest.raises(FtlError):
        ftl.write(-1, b"x")


def test_writes_stripe_across_dies():
    ftl = _ftl(dies=(2, 2))
    pages = [ftl.write(i, b"d") for i in range(4)]
    dies = {(p.channel, p.way) for p in pages}
    assert len(dies) == 4  # round-robin hit every die


def test_trim_invalidates():
    ftl = _ftl()
    ftl.write(1, b"x")
    ftl.trim(1)
    with pytest.raises(FtlError):
        ftl.read(1)


def test_gc_reclaims_and_preserves_data():
    """Overwrite churn on a tiny die forces GC; live data must survive."""
    ftl = _ftl(blocks=4, pages=4)
    # Fill 3 LPNs and churn them well past physical block capacity.
    for round_ in range(20):
        for lpn in range(3):
            ftl.write(lpn, f"r{round_}l{lpn}".encode())
    assert ftl.gc_runs > 0
    for lpn in range(3):
        assert ftl.read(lpn)[:6] == f"r19l{lpn}".encode()


def test_write_amplification_reported():
    ftl = _ftl(blocks=4, pages=4)
    for round_ in range(20):
        for lpn in range(3):
            ftl.write(lpn, b"data")
    assert ftl.write_amplification >= 1.0


def test_gc_migrations_counted():
    ftl = _ftl(blocks=4, pages=4)
    # Keep 3 live LPNs plus churn a 4th so victims contain live pages.
    for lpn in range(3):
        ftl.write(lpn, f"live{lpn}".encode())
    for round_ in range(30):
        ftl.write(3, f"churn{round_}".encode())
    assert ftl.read(0)[:5] == b"live0"
    assert ftl.read(3)[:7] == b"churn29"


def test_capacity_is_overprovisioned():
    ftl = _ftl()
    assert ftl.logical_capacity_pages < ftl.nand.geometry.total_pages


def test_a_failed_program_does_not_wedge_its_die():
    """Only the injected write fails: the die's next write lands on the
    page the failed program left unprogrammed."""
    ftl = _ftl(blocks=8, pages=8, dies=(2, 4))
    dies = ftl.nand.geometry.dies
    ftl.nand.inject_program_failures(0, 1)
    failed = []
    for lpn in range(3 * dies):
        try:
            ftl.write(lpn, b"lpn%d" % lpn)
        except NandError:
            failed.append(lpn)
    assert failed == [0]
    for lpn in range(1, 3 * dies):
        assert ftl.read(lpn)[:8].rstrip(b"\0") == b"lpn%d" % lpn


def test_a_failed_gc_migration_does_not_wedge_its_die():
    """A program failure on GC's first migration fails that write only;
    later collections migrate into the page it left unprogrammed."""
    ftl = _ftl(blocks=4, pages=4)
    for lpn in range(6):  # live pages in every block: GC must migrate
        ftl.write(lpn, b"live%d" % lpn)
    migrate = ftl._migrate

    def fail_first_migration(die, lpn, data):
        ftl._migrate = migrate
        ftl.nand.inject_program_failures(die, 1)
        migrate(die, lpn, data)

    ftl._migrate = fail_first_migration
    with pytest.raises(NandError):
        for round_ in range(40):
            ftl.write(6 + round_ % 2, b"churn")
    for round_ in range(40):
        ftl.write(6 + round_ % 2, b"after%d" % round_)
    assert ftl.gc_migrations > 0
    assert [ftl.read(lpn)[:5] for lpn in range(6)] == [
        b"live%d" % lpn for lpn in range(6)]
    assert ftl.read(7)[:7] == b"after39"

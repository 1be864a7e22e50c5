"""The datapath method table: order, lookup, capability filters, specs.

:data:`repro.datapath.SPECS` is the single source of truth for transfer
methods: the driver, engine, CLI, sweeps and ``make_methods`` all read
it.  These tests pin its contract.
"""

import dataclasses

import pytest

from repro import datapath
from repro.datapath import names
from repro.datapath.spec import DatapathCaps, DatapathSpec


# ------------------------------------------------------------- lookup


def test_builtin_methods_registered_in_order():
    assert datapath.method_names() == (
        names.PRP, names.SGL, names.BANDSLIM, names.BYTEEXPRESS,
        names.BYTEEXPRESS_TAGGED, names.MMIO, names.PIO_COHERENT,
        names.HYBRID)


def test_figure5_filter_matches_paper_sweep():
    assert datapath.method_names(figure5=True) == (
        names.PRP, names.BANDSLIM, names.BYTEEXPRESS,
        names.PIO_COHERENT)


def test_engine_methods_are_the_codec_bearing_specs():
    """Engine support is derived, not declared: a method rides the
    engine iff its spec carries the host codec a submission encodes."""
    from repro.engine.engine import engine_methods

    assert engine_methods() == tuple(
        spec.name for spec in datapath.SPECS if spec.host_codec is not None)
    assert engine_methods() == (
        names.PRP, names.SGL, names.BANDSLIM, names.BYTEEXPRESS,
        names.BYTEEXPRESS_TAGGED)


def test_unknown_capability_flag_raises():
    with pytest.raises(AttributeError):
        datapath.method_names(warp_drive=True)


def test_resolve_returns_spec():
    spec = datapath.resolve(names.BYTEEXPRESS)
    assert spec.name == names.BYTEEXPRESS
    assert spec.caps.inline


def test_resolve_unknown_names_the_alternatives():
    with pytest.raises(datapath.UnknownMethodError) as exc:
        datapath.resolve("warp-drive")
    assert "warp-drive" in str(exc.value)
    assert names.PRP in str(exc.value)


def test_is_registered():
    """Every listed method resolves to its own table entry, once."""
    listed = datapath.method_names()
    assert len(set(listed)) == len(listed)
    for spec in datapath.SPECS:
        assert datapath.resolve(spec.name) is spec
    assert "warp-drive" not in listed


def test_make_methods_builds_one_object_per_entry():
    from repro.testbed import make_block_testbed
    from repro.transfer import PassthruTransfer

    tb = make_block_testbed(include_mmio=True)
    assert tuple(tb.methods) == datapath.method_names(tag_reassembly=False)
    for name, method in tb.methods.items():
        assert method.name == name
        spec = datapath.resolve(name)
        if spec.host_codec is not None:
            assert isinstance(method, PassthruTransfer)
            assert method.spec is spec


# ------------------------------------------------------------ specs


def test_spec_is_name_caps_and_codec():
    assert [f.name for f in dataclasses.fields(DatapathSpec)] == [
        "name", "caps", "host_codec"]


def test_spec_requires_a_name():
    with pytest.raises(ValueError):
        DatapathSpec(name="", caps=DatapathCaps())


def test_tag_reassembly_requires_inline():
    with pytest.raises(ValueError):
        DatapathSpec(name="bad", caps=DatapathCaps(tag_reassembly=True))


def test_slots_needed_inline_counts_chunks():
    from repro.core.chunking import chunk_count
    from repro.core.reassembly import tagged_chunk_count

    caps = datapath.resolve(names.BYTEEXPRESS).caps
    tagged = datapath.resolve(names.BYTEEXPRESS_TAGGED).caps
    for size in (1, 63, 64, 65, 256, 4096):
        assert caps.slots_needed(size) == 1 + chunk_count(size)
        assert caps.slots_needed(size, tagged=True) == \
            1 + tagged_chunk_count(size)
        # A tag_reassembly spec always uses the self-describing framing.
        assert tagged.slots_needed(size) == 1 + tagged_chunk_count(size)


def test_slots_needed_fragmented_counts_fragments():
    from repro.nvme.constants import BANDSLIM_FRAGMENT_CAPACITY

    caps = datapath.resolve(names.BANDSLIM).caps
    assert caps.slots_needed(0) == 1
    assert caps.slots_needed(1) == 1
    assert caps.slots_needed(BANDSLIM_FRAGMENT_CAPACITY + 1) == 2


def test_slots_needed_paged_methods_use_one_slot():
    for method in (names.PRP, names.SGL):
        caps = datapath.resolve(method).caps
        assert caps.slots_needed(4096) == 1

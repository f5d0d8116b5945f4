"""The taint event stream: wire format and machine channel hooks.

* **wire format** -- hypothesis round-trips random channel-op sequences
  through the packed record stream, checking kind/run decomposition,
  ``FLAG_LAST`` placement and tag side-table resolution;
* **channel hooks** -- the machine's physical channels reach the
  tracker through its auto-registered pipeline exactly once, and the
  pipeline's record ledgers are published as gauges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.machine import Machine, MachineConfig
from repro.isa.memory import contiguous_runs
from repro.obs.metrics import MetricsRegistry
from repro.taint.intern import ProvInterner
from repro.taint.pipeline import (
    EV_APPEND,
    EV_CLEAR,
    EV_COPY,
    EV_FREE,
    EV_WRITE,
    FLAG_LAST,
    RECORD_SLOTS,
    TaintPipeline,
    TaintSink,
)
from repro.taint.shadow import SHADOW_PAGE_SHIFT
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker, register_tracker_metrics

TAGS = (
    Tag(TagType.NETFLOW, 0),
    Tag(TagType.NETFLOW, 1),
    Tag(TagType.PROCESS, 0),
    Tag(TagType.FILE, 0),
)

SHADOW_PAGE_SIZE = 1 << SHADOW_PAGE_SHIFT

# ======================================================================
# channel-op strategies
# ======================================================================

#: A few shadow pages of scratch physical space.
offsets = st.integers(0, 2 * SHADOW_PAGE_SIZE)
lengths = st.integers(1, 48)
#: Scattered (possibly non-contiguous) address tuples, to exercise the
#: contiguous-run decomposition into multi-record events.
scatter = st.lists(offsets, min_size=1, max_size=12, unique=True).map(
    lambda xs: tuple(sorted(xs))
)

channel_ops = st.lists(
    st.one_of(
        st.tuples(st.just("taint"), scatter, st.sampled_from(TAGS)),
        st.tuples(st.just("clear"), scatter),
        st.tuples(st.just("write"), scatter),
        st.tuples(st.just("copy"), offsets, offsets, lengths,
                  st.sampled_from(TAGS + (None,))),
        st.tuples(st.just("free"), st.lists(st.integers(0, 32), min_size=1,
                                            max_size=4, unique=True).map(tuple)),
    ),
    min_size=1,
    max_size=16,
)


def emit(pipeline, op):
    """Feed one strategy op into *pipeline* through the protocol verbs."""
    name = op[0]
    if name == "taint":
        pipeline.taint(op[1], op[2])
    elif name == "clear":
        pipeline.clear(op[1])
    elif name == "write":
        pipeline.phys_write(op[1], source="fuzz")
    elif name == "copy":
        dst = tuple(range(op[1], op[1] + op[3]))
        src = tuple(range(op[2], op[2] + op[3]))
        pipeline.phys_copy(dst, src, actor_tag=op[4])
    else:  # free
        pipeline.frames_freed(op[1])


def expected_events(op):
    """The (kind, a, b, c, ref_tag, last) tuples one op must decode to."""
    name = op[0]
    out = []
    if name == "taint":
        runs = list(contiguous_runs(op[1]))
        for start, length in runs:
            out.append((EV_APPEND, start, length, 0, op[2], False))
    elif name in ("clear", "write"):
        kind = EV_CLEAR if name == "clear" else EV_WRITE
        for start, length in contiguous_runs(op[1]):
            out.append((kind, start, length, 0, None, False))
    elif name == "copy":
        out.append((EV_COPY, op[1], op[2], op[3], op[4], False))
    else:
        for start, length in contiguous_runs(op[1]):
            out.append((EV_FREE, start, length, 0, None, False))
    if out:
        kind, a, b, c, ref, _ = out[-1]
        out[-1] = (kind, a, b, c, ref, True)
    return out


class RecordingSink(TaintSink):
    """Collects batches; decodes them for wire-format assertions."""

    def __init__(self):
        self.batches = []

    def consume(self, batch):
        self.batches.append(batch)

    def decoded(self):
        return [
            (e.kind, e.a, e.b, e.c, e.ref, e.last)
            for batch in self.batches
            for e in batch.events()
        ]


# ======================================================================
# 1. wire format: round trip, ordering, FLAG_LAST
# ======================================================================


class TestWireFormat:
    @given(ops=channel_ops)
    @settings(max_examples=60, deadline=None)
    def test_inline_round_trip(self, ops):
        """Every op decodes back to its contiguous-run decomposition."""
        sink = RecordingSink()
        pipeline = TaintPipeline(sink)
        for op in ops:
            emit(pipeline, op)
        expected = [ev for op in ops for ev in expected_events(op)]
        assert sink.decoded() == expected
        assert pipeline.emitted_records == sum(len(b) for b in sink.batches)

    def test_every_event_ends_with_flag_last(self):
        sink = RecordingSink()
        pipeline = TaintPipeline(sink)
        # Three disjoint runs -> one event, three records, one LAST.
        pipeline.taint((0, 1, 10, 11, 20), TAGS[0])
        (batch,) = sink.batches
        codes = batch.records[0::RECORD_SLOTS]
        assert [bool(c & FLAG_LAST) for c in codes] == [False, False, True]
        assert pipeline.consumed_records == pipeline.emitted_records == 3


# ======================================================================
# 2. channel hooks: machine -> pipeline -> tracker
# ======================================================================


class TestChannelHooks:
    def test_machine_phys_write_applies_once(self):
        """The machine's channel hooks go to the auto-registered
        pipeline -- one physical write must count exactly once."""
        machine = Machine(MachineConfig())
        tracker = TaintTracker(interner=ProvInterner())
        machine.plugins.register(tracker)
        tracker.pipeline.taint(range(0x2000, 0x2008), TAGS[0])
        machine.phys_write(tuple(range(0x2000, 0x2008)), b"\x00" * 8, source="t")
        assert tracker.stats.external_writes == 1
        assert tracker.shadow.tainted_bytes == 0

    def test_record_ledgers_are_published(self):
        registry = MetricsRegistry()
        tracker = TaintTracker(interner=ProvInterner())
        register_tracker_metrics(registry, tracker)
        tracker.pipeline.taint((0, 1, 10), TAGS[0])
        tracker.pipeline.phys_write((64,), "dma")
        gauges = registry.snapshot()["gauges"]
        assert gauges["taint.pipeline.emitted_events"] == 2
        assert gauges["taint.pipeline.emitted_records"] == 3
        assert gauges["taint.pipeline.consumed_records"] == 3

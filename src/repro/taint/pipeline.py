"""The taint event stream: the machine's channel events as packed records.

The machine's **channel events** -- taint seeding, external writes,
kernel copies, frame frees -- reach a taint engine through one
:class:`TaintPipeline`, which packs each event into an array of
fixed-width records and hands it synchronously to a :class:`TaintSink`.
Propagation stays inline with execution, as in FAROS' PANDA replay
plugin: every event is applied before the emitting call returns, so
shadow state is always current and no observer needs a barrier.

Protocol
--------

A :class:`TaintEvent` is one channel operation.  On the wire it is one
or more fixed-width records (``RECORD_SLOTS`` machine words in an
``array('q')``) -- one record per *contiguous physical run*, reusing the
``contiguous_runs`` bulk decomposition, with ``Tag`` side references in
a per-batch ``refs`` table.  The final record of an event carries
``FLAG_LAST`` so consumers bump per-event statistics (``kernel_copies``,
``external_writes``) and run per-event budget checks exactly once.

Consumers implement ``consume(batch)`` -- the :class:`TaintSink`
protocol.  Both the fast :class:`~repro.taint.tracker.TaintTracker` and
the byte-at-a-time reference oracle implement it, so the differential
harness holds the bulk and per-byte consumers bit-identical.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.emulator.plugins import Plugin
from repro.isa.memory import contiguous_runs
from repro.taint.tags import Tag

#: Machine words per packed record.
RECORD_SLOTS = 6

# Event kinds (low byte of a record's code word).
EV_APPEND = 1          #: append ``ref`` tag to [a, a+b)
EV_CLEAR = 2           #: clear [a, a+b)
EV_WRITE = 3           #: external write: clear [a, a+b), count on LAST
EV_COPY = 4            #: copy [b, b+c) -> [a, a+c) with optional actor ``ref``
EV_FREE = 5            #: frames [a, a+b) freed: clear their pages

KIND_MASK = 0xFF
FLAG_LAST = 0x100

KIND_NAMES = {
    EV_APPEND: "append",
    EV_CLEAR: "clear",
    EV_WRITE: "write",
    EV_COPY: "copy",
    EV_FREE: "free",
}


@dataclass(frozen=True)
class TaintEvent:
    """One decoded channel-event record (the analyst/test-facing view).

    The packed wire format is the ``array('q')`` records; this dataclass
    is what :meth:`EventBatch.events` decodes them into for round-trip
    tests and debugging.  ``last`` marks the final record of a
    multi-run event.
    """

    kind: int
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0
    ref: Optional[Tag] = None
    last: bool = True

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"?{self.kind}")


class EventBatch:
    """One emitted event: packed records plus the tag side table."""

    __slots__ = ("records", "refs")

    def __init__(self, records: array, refs: List[Optional[Tag]]) -> None:
        self.records = records
        self.refs = refs

    def __len__(self) -> int:
        return len(self.records) // RECORD_SLOTS

    def events(self) -> List[TaintEvent]:
        """Decode the packed records (tests, debugging -- not the hot path)."""
        recs, refs = self.records, self.refs
        out: List[TaintEvent] = []
        for i in range(0, len(recs), RECORD_SLOTS):
            code = recs[i]
            r = recs[i + 5]
            out.append(
                TaintEvent(
                    kind=code & KIND_MASK,
                    a=recs[i + 1],
                    b=recs[i + 2],
                    c=recs[i + 3],
                    d=recs[i + 4],
                    ref=refs[r] if r >= 0 else None,
                    last=bool(code & FLAG_LAST),
                )
            )
        return out


class TaintSink:
    """The consumer protocol: anything that can apply an event batch.

    Both taint trackers implement this; the pipeline only ever talks to
    its sink through :meth:`consume` (plus the optional
    ``resolve_actor_tag`` helper for copy-event tag minting).
    """

    def consume(self, batch: EventBatch) -> None:  # pragma: no cover - protocol
        raise NotImplementedError


class TaintPipeline(Plugin):
    """The transport between the machine's channel events and a sink.

    Registers as an emulator plugin *in front of* its owning tracker
    (:meth:`~repro.emulator.plugins.PluginManager.register` inserts it
    automatically), receives the machine's physical-channel hooks, and
    packs each event into records its sink consumes before the hook
    returns.
    """

    #: Duck-type marker so the plugin manager can auto-register the
    #: pipeline without importing this module (cycle avoidance).
    is_taint_transport = True

    def __init__(self, sink: TaintSink) -> None:
        super().__init__()
        self.sink = sink
        self.emitted_events = 0
        self.emitted_records = 0
        self.consumed_records = 0

    # ------------------------------------------------------------------
    # emission: the TaintEvent protocol verbs
    # ------------------------------------------------------------------

    def taint(self, paddrs: Sequence[int], tag: Tag) -> None:
        """Append *tag* to every byte of *paddrs* (taint seeding)."""
        recs = array("q")
        for start, length in contiguous_runs(paddrs):
            recs.extend((EV_APPEND, start, length, 0, 0, 0))
        if recs:
            recs[-RECORD_SLOTS] |= FLAG_LAST
            self._emit(recs, [tag])

    def clear(self, paddrs: Sequence[int]) -> None:
        """Drop the provenance of every byte of *paddrs*."""
        recs = array("q")
        for start, length in contiguous_runs(paddrs):
            recs.extend((EV_CLEAR, start, length, 0, 0, -1))
        if recs:
            recs[-RECORD_SLOTS] |= FLAG_LAST
            self._emit(recs, [])

    def phys_write(self, paddrs: Sequence[int], source: str = "") -> None:
        """External data overwrote *paddrs*: clear, count one write."""
        recs = array("q")
        for start, length in contiguous_runs(paddrs):
            recs.extend((EV_WRITE, start, length, 0, 0, -1))
        if recs:
            recs[-RECORD_SLOTS] |= FLAG_LAST
            self._emit(recs, [])

    def phys_copy(
        self,
        dst_paddrs: Sequence[int],
        src_paddrs: Sequence[int],
        actor_tag: Optional[Tag] = None,
    ) -> None:
        """Kernel byte move ``dst[i] <- src[i]`` with an optional actor tag."""
        recs = array("q")
        refs: List[Optional[Tag]] = []
        ref = -1
        if actor_tag is not None:
            refs.append(actor_tag)
            ref = 0
        i, n = 0, len(dst_paddrs)
        while i < n:
            dst, src = dst_paddrs[i], src_paddrs[i]
            j = i + 1
            while j < n and dst_paddrs[j] == dst + (j - i) and src_paddrs[j] == src + (j - i):
                j += 1
            recs.extend((EV_COPY, dst, src, j - i, 0, ref))
            i = j
        if recs:
            recs[-RECORD_SLOTS] |= FLAG_LAST
            self._emit(recs, refs)

    def frames_freed(self, frames: Sequence[int]) -> None:
        """Physical *frames* returned to the allocator: shadow drops."""
        recs = array("q")
        for start, length in contiguous_runs(frames):
            recs.extend((EV_FREE, start, length, 0, 0, -1))
        if recs:
            recs[-RECORD_SLOTS] |= FLAG_LAST
            self._emit(recs, [])

    def _emit(self, recs: array, refs: List[Optional[Tag]]) -> None:
        n = len(recs) // RECORD_SLOTS
        self.emitted_events += 1
        self.emitted_records += n
        self.sink.consume(EventBatch(recs, refs))
        self.consumed_records += n

    def drain(self) -> None:
        """No-op: every event is consumed at emission, nothing queues.

        Kept so external span wrappers that look the method up on the
        class still find it.
        """

    # ------------------------------------------------------------------
    # plugin hooks: the machine side of the pipeline
    # ------------------------------------------------------------------

    def on_phys_write(self, machine, paddrs, source: str) -> None:
        self.phys_write(paddrs, source)

    def on_phys_copy(self, machine, dst_paddrs, src_paddrs, actor=None) -> None:
        actor_tag = None
        resolve = getattr(self.sink, "resolve_actor_tag", None)
        if resolve is not None:
            actor_tag = resolve(actor)
        self.phys_copy(dst_paddrs, src_paddrs, actor_tag)

    def on_frames_freed(self, machine, frames) -> None:
        self.frames_freed(frames)


def register_pipeline_metrics(registry, pipeline: TaintPipeline) -> None:
    """Publish the pipeline's producer/consumer record ledgers into *registry*."""
    registry.gauge("taint.pipeline.emitted_events", lambda: pipeline.emitted_events)
    registry.gauge("taint.pipeline.emitted_records", lambda: pipeline.emitted_records)
    registry.gauge("taint.pipeline.consumed_records", lambda: pipeline.consumed_records)

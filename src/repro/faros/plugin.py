"""The FAROS plugin: taint + tag insertion + detection, in one attachable
unit (the PANDA-plugin analog of the paper's Fig. 3 architecture).

:class:`Faros` owns a :class:`~repro.taint.tracker.TaintTracker` and
forwards the emulator's execution callbacks to it, then layers FAROS'
own logic on the remaining callbacks:

* **netflow tag insertion** on packet receive (every payload byte);
* **file tag insertion** on file reads (loaded content) and writes
  (the buffer being persisted), with per-access versions;
* **export-table tag insertion** on module load (each function-pointer
  field of the export table);
* **OS introspection** (CR3 -> process name) for readable provenance;
* the **confluence detector** registered as a taint-load listener.

Register a single ``Faros`` instance on a machine (or pass it to
``replay``) -- it handles everything.
"""

from __future__ import annotations

from typing import Optional

from dataclasses import dataclass

from repro.emulator.plugins import Plugin
from repro.faros.detector import DetectionConfig, Detector
from repro.faros.osi import OSIPlugin
from repro.faros.report import FarosReport
from repro.isa.cpu import AccessKind
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.taint.policy import TaintPolicy
from repro.taint.tags import TagStore
from repro.taint.tracker import TaintTracker, register_tracker_metrics


@dataclass(frozen=True)
class TimelineEvent:
    """One entry of the analyst-facing chronology."""

    tick: int
    kind: str
    description: str

    def __str__(self) -> str:
        return f"[{self.tick:>10}] {self.kind:<14} {self.description}"


class Faros(Plugin):
    """Whole-system provenance DIFT with in-memory-injection flagging."""

    name = "faros"

    def __init__(
        self,
        policy: Optional[TaintPolicy] = None,
        detection: Optional[DetectionConfig] = None,
        augment_export_tags: bool = True,
        taint_kernel_code: bool = False,
        tracker_cls=TaintTracker,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Create the plugin.

        :param augment_export_tags: mint per-function export-table tags
            (the paper's §V-A future work) so reports name the API each
            flagged load resolved.  Off = the paper's single anonymous
            export-table tag.
        :param taint_kernel_code: additionally taint the kernel module's
            *code* bytes with export-table tags.  This is the §VI-B
            "update the policy" response to resolvers that scan kernel
            code for API stubs instead of reading the export table
            (ROP-style function discovery).
        :param tracker_cls: the taint core to run on.  Defaults to the
            fast-path :class:`~repro.taint.tracker.TaintTracker`; the
            differential harness passes
            :class:`~repro.taint.reference.ReferenceTaintTracker` to
            check detection verdicts never drift between the two.
        :param metrics: a :class:`~repro.obs.metrics.MetricsRegistry` to
            publish taint/detector instrumentation into.  ``None`` binds
            the shared null registry -- the analysis hot paths then touch
            only no-op counter singletons.
        """
        super().__init__()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tags = TagStore()
        self.tracker = tracker_cls(
            policy=policy or TaintPolicy(),
            tags=self.tags,
        )
        #: The channel-event transport feeding the tracker.  Exposing it
        #: here lets the plugin manager auto-register it ahead of this
        #: plugin, and gives FAROS' tag-insertion hooks their emission
        #: surface.
        self.pipeline = self.tracker.pipeline
        # Fast trackers expose a flag-cache-capable shadow; the detector
        # then pre-checks confluence with per-page summary words.  The
        # byte-at-a-time reference tracker's shadow is quietly ignored.
        self.detector = Detector(
            self.tags,
            detection,
            metrics=self.metrics,
            shadow=getattr(self.tracker, "shadow", None),
        )
        if self.metrics.enabled:
            register_tracker_metrics(self.metrics, self.tracker)
        self.osi = OSIPlugin()
        self.augment_export_tags = augment_export_tags
        self.taint_kernel_code = taint_kernel_code
        #: Provenance of every buffer written to disk, keyed by lowercase
        #: file path: ``[(version, prov), ...]`` in write order.  This is
        #: what lets reports stitch provenance across the disk when a
        #: dropper persists its stage and reloads it later.
        self.file_lineage = {}
        #: Chronological record of analysis-relevant events, so the
        #: analyst reads one story instead of correlating four logs.
        self.timeline = []
        #: The machine-level fault that cut this run short (a
        #: :class:`~repro.faults.errors.FaultRecord`), or None for a
        #: clean run.  When set, :meth:`report` marks itself degraded.
        self.fault_record = None
        self.tracker.add_load_listener(self.detector.observe_load)
        self.detector.on_flag.append(self._record_flag)

    def _note(self, tick: int, kind: str, description: str) -> None:
        self.timeline.append(TimelineEvent(tick, kind, description))

    def _record_flag(self, flagged) -> None:
        self._note(
            flagged.tick,
            "FLAG",
            f"{flagged.executing_process}({flagged.executing_pid}) executed "
            f"injected `{flagged.insn_text}` @ {flagged.pc:#x} reading the "
            f"export table ({flagged.rule})",
        )

    # ------------------------------------------------------------------
    # forwarding to the taint core
    # ------------------------------------------------------------------

    def on_insn_exec(self, machine, thread, fx) -> None:
        self.tracker.on_insn_exec(machine, thread, fx)

    def wants_insn_effects(self) -> bool:
        return self.tracker.wants_insn_effects()

    def block_taint_unit(self):
        """FAROS' per-instruction need is exactly its tracker's Table I
        propagation (detection rides on the tracker's load listeners),
        so the translated-tainted tier may stand in for the interpreter
        whenever the tracker supports it.  Reference trackers inherit
        the base ``None`` and keep forcing the full effect stream."""
        return getattr(self.tracker, "block_taint_unit", lambda: None)()

    def on_insns_skipped(self, machine, thread, count) -> None:
        self.tracker.on_insns_skipped(machine, thread, count)

    # The physical channels (external writes, kernel copies, frame
    # frees) no longer forward through this plugin: the tracker's
    # auto-registered TaintPipeline receives those hooks directly, ahead
    # of Faros in registration order, and streams them to the tracker as
    # packed TaintEvent batches.

    # ------------------------------------------------------------------
    # FAROS tag-insertion hooks (§V-A "Tag Insertion")
    # ------------------------------------------------------------------

    def on_packet_receive(self, machine, packet, paddrs) -> None:
        """Taint every byte of an inbound packet with its netflow tag."""
        tag = self.tags.netflow_tag(
            packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port
        )
        self.pipeline.taint(paddrs, tag)
        self._note(
            machine.now,
            "netflow",
            f"{len(packet.payload)} bytes from {packet.src_ip}:{packet.src_port} "
            f"to port {packet.dst_port} tainted",
        )

    def on_file_read(self, machine, process, path, version, paddrs) -> None:
        """Taint file content loaded into memory with a file tag."""
        self.pipeline.taint(paddrs, self.tags.file_tag(path, version))

    def on_file_write(self, machine, process, path, version, paddrs) -> None:
        """Taint the buffer being written into a file with a file tag.

        The buffer's *pre-existing* provenance is recorded against
        ``(path, version)`` first: the disk hop re-materialises content
        on later reads, and this record is the splice point that lets
        :meth:`~repro.faros.report.FarosReport.render` name the true
        origin of dropped-then-reloaded payloads.
        """
        origin = self.tracker.prov_of_range(paddrs)
        self.file_lineage.setdefault(path.lower(), []).append((version, origin))
        self.pipeline.taint(paddrs, self.tags.file_tag(path, version))
        if origin:
            self._note(
                machine.now,
                "file-write",
                f"{process.name} wrote tainted bytes into {path} (v{version})",
            )

    def on_module_load(self, machine, process, module) -> None:
        """Taint the export table's function-pointer bytes.

        With :attr:`augment_export_tags`, each pointer gets a tag naming
        its function; with :attr:`taint_kernel_code`, the module's whole
        image (stub code included) is tagged so that stub-scanning
        resolvers are caught too.
        """
        if not module.export_pointer_vaddrs:
            return
        names = module.export_pointer_names or (None,) * len(
            module.export_pointer_vaddrs
        )
        for pointer_vaddr, name in zip(module.export_pointer_vaddrs, names):
            paddrs = process.aspace.translate_range(pointer_vaddr, 4, AccessKind.READ)
            tag = self.tags.export_table_tag(name if self.augment_export_tags else None)
            self.pipeline.taint(paddrs, tag)
        if self.taint_kernel_code:
            code_paddrs = process.aspace.translate_range(
                module.base, module.size, AccessKind.READ
            )
            self.pipeline.taint(code_paddrs, self.tags.export_table_tag())

    # ------------------------------------------------------------------
    # OS introspection plumbing
    # ------------------------------------------------------------------

    def on_process_create(self, machine, process) -> None:
        self.osi.on_process_create(machine, process)
        self.tags.process_names[process.cr3] = process.name
        suffix = " (suspended)" if process.created_suspended else ""
        self._note(
            machine.now,
            "process",
            f"{process.name} started, pid={process.pid} cr3={process.cr3:#x}{suffix}",
        )

    def on_process_exit(self, machine, process, status) -> None:
        self.osi.on_process_exit(machine, process, status)
        self.tracker.on_process_exit(machine, process, status)
        self._note(
            machine.now, "process", f"{process.name}(pid={process.pid}) exited ({status:#x})"
        )

    def on_machine_fault(self, machine, record) -> None:
        """Record faults so the report can flag itself degraded.

        Non-terminal injected faults arrive first, then (if the run
        dies) the terminal one -- keeping the *last* record means the
        report carries the fault that actually ended the run.
        """
        self.fault_record = record
        self._note(machine.now, "fault", record.describe())

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def attack_detected(self) -> bool:
        return self.detector.attack_detected

    def report(self) -> FarosReport:
        """Produce the analysis report (call after the run completes)."""
        return FarosReport(
            flagged=list(self.detector.flagged),
            tag_store=self.tags,
            tainted_bytes=self.tracker.shadow.tainted_bytes,
            tag_map_sizes=self.tags.sizes(),
            instructions_analyzed=self.tracker.stats.instructions,
            file_lineage={k: list(v) for k, v in self.file_lineage.items()},
            fault=(
                self.fault_record.to_json_dict()
                if self.fault_record is not None
                else None
            ),
        )

    def render_timeline(self) -> str:
        """The analyst-facing chronology of the whole run."""
        lines = ["=== FAROS timeline ==="]
        lines.extend(str(event) for event in self.timeline)
        return "\n".join(lines)

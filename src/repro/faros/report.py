"""FAROS output rendering (Table II, Figs. 7-10 style).

The paper's output is a table mapping memory addresses of flagged
instructions to their provenance lists, rendered like::

    0x83B07019  NetFlow: {src ip,port: 169.254.26.161:4444, dest
                ip.port: 169.254.57.168:49162} ->Process:
                inject_client.exe ->Process: notepad.exe;

plus, per flagged load, the provenance of the export-table address it
read.  :class:`FarosReport` carries the structured results and renders
them; the benchmark harness asserts against the structure and prints the
rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faros.detector import FlaggedInstruction
from repro.taint.tags import Tag, TagStore, TagType

Prov = Tuple[Tag, ...]


def render_provenance(tags: TagStore, prov: Prov) -> str:
    """Render a provenance list in the paper's arrow chronology."""
    if not prov:
        return "(untainted)"
    return " ->".join(tags.describe(tag) for tag in prov) + ";"


@dataclass
class ProvenanceChain:
    """Structured view of one flagged instruction (a Fig. 7-10 diagram)."""

    instruction_address: int
    instruction: str
    executing_process: str
    netflow: Optional[str]          # "src_ip:src_port -> dst_ip:dst_port"
    process_chain: List[str]        # process names in chronological order
    file_origins: List[str]         # "name v<n>" for any file tags
    export_table_address: int       # the read that triggered the flag
    rule: str
    #: With augmented export tags: which API the flagged load resolved
    #: (e.g. "LoadLibraryA"), else None.
    resolved_function: Optional[str] = None
    #: Netflow recovered by stitching across a disk hop: when the chain
    #: itself has no netflow but its file origin was written from
    #: network-derived bytes, this names that upstream flow.
    stitched_netflow: Optional[str] = None
    #: Processes from the stitched upstream chain (e.g. the dropper).
    upstream_processes: List[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """JSON-shaped chain; inverse of :meth:`from_json_dict`."""
        return {
            "instruction_address": self.instruction_address,
            "instruction": self.instruction,
            "executing_process": self.executing_process,
            "netflow": self.netflow,
            "stitched_netflow": self.stitched_netflow,
            "process_chain": list(self.process_chain),
            "upstream_processes": list(self.upstream_processes),
            "file_origins": list(self.file_origins),
            "export_table_address": self.export_table_address,
            "resolved_function": self.resolved_function,
            "rule": self.rule,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProvenanceChain":
        """Rebuild a chain from :meth:`to_json_dict` output."""
        return cls(
            instruction_address=d["instruction_address"],
            instruction=d["instruction"],
            executing_process=d["executing_process"],
            netflow=d["netflow"],
            process_chain=list(d["process_chain"]),
            file_origins=list(d["file_origins"]),
            export_table_address=d["export_table_address"],
            rule=d["rule"],
            resolved_function=d["resolved_function"],
            stitched_netflow=d["stitched_netflow"],
            upstream_processes=list(d["upstream_processes"]),
        )


@dataclass
class FarosReport:
    """Everything FAROS learned from one analysis run."""

    flagged: List[FlaggedInstruction]
    tag_store: TagStore
    tainted_bytes: int
    tag_map_sizes: Dict[str, int]
    instructions_analyzed: int
    #: path (lowercase) -> [(version, buffer provenance at write time)].
    file_lineage: Dict[str, List[Tuple[int, Prov]]] = field(default_factory=dict)
    #: Observability snapshot for the run that produced this report
    #: (:meth:`repro.obs.session.ObsSession.snapshot`), or None when the
    #: run was not instrumented.  Injected by the analysis runners so the
    #: same numbers appear in ``repro stats`` and triage JSON exports.
    metrics: Optional[dict] = None
    #: The fault that perturbed or ended the producing run, as a
    #: :meth:`~repro.faults.errors.FaultRecord.to_json_dict` dict, or
    #: None for a clean run.  A report with a fault is *degraded*: its
    #: numbers describe the prefix of execution that completed.
    fault: Optional[dict] = None

    @property
    def attack_detected(self) -> bool:
        return bool(self.flagged)

    @property
    def degraded(self) -> bool:
        """True when the producing run was cut short or perturbed by a
        fault -- the report is still valid, but partial."""
        return self.fault is not None

    def origin_of_file(self, path: str, before_version: int) -> Prov:
        """Provenance of the most recent write to *path* whose version
        precedes *before_version* (i.e. the write a later read saw)."""
        entries = self.file_lineage.get(path.lower(), [])
        best: Prov = ()
        for version, prov in entries:
            if version < before_version:
                best = prov
        return best

    def chains(self) -> List[ProvenanceChain]:
        """One structured provenance chain per flagged instruction."""
        out = []
        for f in self.flagged:
            netflow = None
            processes: List[str] = []
            files: List[str] = []
            file_payloads = []
            for tag in f.insn_prov:
                if tag.type is TagType.NETFLOW and netflow is None:
                    p = self.tag_store.netflow_payload(tag)
                    netflow = f"{p.src_ip}:{p.src_port} -> {p.dst_ip}:{p.dst_port}"
                elif tag.type is TagType.PROCESS:
                    cr3 = self.tag_store.process_cr3(tag)
                    processes.append(self.tag_store.process_names.get(cr3, f"cr3={cr3:#x}"))
                elif tag.type is TagType.FILE:
                    payload = self.tag_store.file_payload(tag)
                    files.append(f"{payload.name} v{payload.version}")
                    file_payloads.append(payload)
            # Stitch across the disk: if no direct netflow, consult the
            # lineage of the file the bytes were read out of.
            stitched_netflow = None
            upstream: List[str] = []
            if netflow is None:
                for payload in file_payloads:
                    for tag in self.origin_of_file(payload.name, payload.version):
                        if tag.type is TagType.NETFLOW and stitched_netflow is None:
                            p = self.tag_store.netflow_payload(tag)
                            stitched_netflow = (
                                f"{p.src_ip}:{p.src_port} -> {p.dst_ip}:{p.dst_port}"
                            )
                        elif tag.type is TagType.PROCESS:
                            cr3 = self.tag_store.process_cr3(tag)
                            name = self.tag_store.process_names.get(cr3, f"cr3={cr3:#x}")
                            if name not in upstream:
                                upstream.append(name)
                    if stitched_netflow:
                        break
            resolved = None
            for tag in f.read_prov:
                if tag.type is TagType.EXPORT_TABLE:
                    resolved = self.tag_store.export_function(tag)
                    if resolved:
                        break
            out.append(
                ProvenanceChain(
                    instruction_address=f.pc,
                    instruction=f.insn_text,
                    executing_process=f.executing_process,
                    netflow=netflow,
                    process_chain=processes,
                    file_origins=files,
                    export_table_address=f.read_vaddr,
                    rule=f.rule,
                    resolved_function=resolved,
                    stitched_netflow=stitched_netflow,
                    upstream_processes=upstream,
                )
            )
        return out

    def _flag_dicts(self) -> List[dict]:
        return [
            {
                "tick": c_flag.tick,
                "pc": c_flag.pc,
                "instruction": c_flag.insn_text,
                "executing_process": c_flag.executing_process,
                "executing_pid": c_flag.executing_pid,
                "read_vaddr": c_flag.read_vaddr,
                "rule": c_flag.rule,
                "provenance": [
                    self.tag_store.describe(tag) for tag in c_flag.insn_prov
                ],
            }
            for c_flag in self.flagged
        ]

    def to_json_dict(self) -> dict:
        """Machine-readable report (for pipelines ingesting FAROS output).

        Symmetric with :meth:`ReportSummary.from_json_dict`:
        ``ReportSummary.from_json_dict(report.to_json_dict())`` equals
        ``report.summary()``.
        """
        return {
            "attack_detected": self.attack_detected,
            "instructions_analyzed": self.instructions_analyzed,
            "tainted_bytes": self.tainted_bytes,
            "tag_map_sizes": dict(self.tag_map_sizes),
            "flags": self._flag_dicts(),
            "chains": [chain.to_json_dict() for chain in self.chains()],
            "metrics": self.metrics,
            "degraded": self.degraded,
            "fault": self.fault,
        }

    def summary(self) -> "ReportSummary":
        """The serializable face of this report (what crosses processes)."""
        return ReportSummary(
            attack_detected=self.attack_detected,
            instructions_analyzed=self.instructions_analyzed,
            tainted_bytes=self.tainted_bytes,
            tag_map_sizes=dict(self.tag_map_sizes),
            flags=self._flag_dicts(),
            chains=self.chains(),
            metrics=self.metrics,
            fault=self.fault,
        )

    def render(self) -> str:
        """The human-readable report (Table II format)."""
        lines = ["=== FAROS analysis report ==="]
        if self.degraded:
            fault = self.fault or {}
            lines.append(
                "DEGRADED RUN: "
                f"{fault.get('kind', 'fault')}: {fault.get('detail', '')} "
                "(results cover the completed prefix of execution)"
            )
        if not self.flagged:
            lines.append("no in-memory injection attack flagged")
        else:
            lines.append(
                f"IN-MEMORY INJECTION FLAGGED: {len(self.flagged)} instruction(s)"
            )
            lines.append(f"{'Memory Address':<16} Provenance List")
            for f in self.flagged:
                prov = render_provenance(self.tag_store, f.insn_prov)
                lines.append(f"{f.pc:#012x}    {prov}")
                lines.append(
                    f"{'':16}read export table @ {f.read_vaddr:#x} "
                    f"[{render_provenance(self.tag_store, f.read_prov)}] "
                    f"in {f.executing_process} ({f.rule})"
                )
        for chain in self.chains():
            if chain.stitched_netflow:
                lines.append(
                    f"{'':16}disk-hop lineage: content of "
                    f"{', '.join(chain.file_origins)} originated in "
                    f"NetFlow {chain.stitched_netflow} via "
                    f"{' -> '.join(chain.upstream_processes) or '(unknown)'}"
                )
        lines.append(
            f"-- {self.instructions_analyzed} instructions analyzed, "
            f"{self.tainted_bytes} tainted bytes, tag maps {self.tag_map_sizes}"
        )
        return "\n".join(lines)


@dataclass
class ReportSummary:
    """A :class:`FarosReport` without the live tag store.

    This is the **cross-process result channel**: a worker serializes
    its report with :meth:`FarosReport.to_json_dict`, ships it over a
    pipe (or JSON), and the aggregator reconstructs this summary.  It
    round-trips losslessly --
    ``ReportSummary.from_json_dict(r.to_json_dict())`` equals
    ``r.summary()`` -- which the report-export tests lock in for every
    attack scenario.
    """

    attack_detected: bool
    instructions_analyzed: int
    tainted_bytes: int
    tag_map_sizes: Dict[str, int]
    flags: List[dict]
    chains: List[ProvenanceChain]
    #: Observability snapshot of the producing run (or None).
    metrics: Optional[dict] = None
    #: Serialized fault record of the producing run (or None).
    fault: Optional[dict] = None

    @property
    def degraded(self) -> bool:
        return self.fault is not None

    def to_json_dict(self) -> dict:
        """Same shape as :meth:`FarosReport.to_json_dict`."""
        return {
            "attack_detected": self.attack_detected,
            "instructions_analyzed": self.instructions_analyzed,
            "tainted_bytes": self.tainted_bytes,
            "tag_map_sizes": dict(self.tag_map_sizes),
            "flags": [dict(flag) for flag in self.flags],
            "chains": [chain.to_json_dict() for chain in self.chains],
            "metrics": self.metrics,
            "degraded": self.degraded,
            "fault": self.fault,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReportSummary":
        """Rebuild a summary from either side of the symmetric pair.

        ``metrics`` is read with ``.get`` so dicts produced before the
        observability layer existed still deserialize.
        """
        return cls(
            attack_detected=d["attack_detected"],
            instructions_analyzed=d["instructions_analyzed"],
            tainted_bytes=d["tainted_bytes"],
            tag_map_sizes=dict(d["tag_map_sizes"]),
            flags=[dict(flag) for flag in d["flags"]],
            chains=[ProvenanceChain.from_json_dict(c) for c in d["chains"]],
            metrics=d.get("metrics"),
            fault=d.get("fault"),
        )

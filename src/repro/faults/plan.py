"""Deterministic fault injection: FaultPlan and its trigger machinery.

A :class:`FaultPlan` is a set of ``(trigger, fault)`` rules applied to a
:class:`~repro.emulator.record_replay.Scenario`:

* ``packet`` triggers rewrite the scenario's scheduled events *before*
  the run (corrupt/truncate/drop the K-th inbound packet), so both the
  recording and its replay see the identical mutated input;
* ``instret`` triggers schedule a journaled event that raises a chosen
  fault when the machine clock reaches tick N;
* ``syscall`` triggers register a :class:`SyscallFaultInjector` plugin
  (inside the scenario's setup, so record and replay both get it) that
  overrides the N-th syscall with an error return or a raised fault.

Every firing is marked in the machine's delivery journal -- packet and
instret rules *are* journaled events, and syscall overrides append a
:class:`~repro.faults.errors.FaultMarker` -- so a faulted run replays
bit-identically and the replay verifier checks the injections happened
at the same points.  Nothing here consults wall-clock time: triggers are
pure functions of the instruction stream.

Plans serialize to plain dicts (:meth:`FaultPlan.to_json_dict`), which
is how chaos jobs carry them across the triage pool's process boundary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.emulator.devices import Packet
from repro.emulator.machine import MachineConfig
from repro.emulator.plugins import Plugin
from repro.emulator.record_replay import PacketEvent, Scenario
from repro.faults.errors import (
    DeviceFault,
    EmulatorFault,
    GuestResourceExhausted,
    InjectedFault,
    TaintBudgetExceeded,
    WatchdogExpired,
)
from repro.guestos.syscalls import ERR
from repro.taint.policy import TaintPolicy

__all__ = [
    "FaultRule",
    "FaultPlan",
    "SyscallFaultInjector",
    "InjectedMachineFault",
    "InjectedPacketNote",
    "build_fault",
]

_TRIGGERS = ("packet", "syscall", "instret")
_ACTIONS = ("fault", "error", "corrupt", "truncate", "drop")


def build_fault(kind: str, detail: str) -> EmulatorFault:
    """Construct the taxonomy exception named *kind*, marked injected."""
    if kind == "DeviceFault":
        fault: EmulatorFault = DeviceFault("injected", detail)
    elif kind == "GuestResourceExhausted":
        fault = GuestResourceExhausted("injected", detail)
    elif kind == "WatchdogExpired":
        fault = WatchdogExpired("injected", 0, detail)
    elif kind == "TaintBudgetExceeded":
        fault = TaintBudgetExceeded(detail, 0, 0)
    else:
        fault = InjectedFault(detail or kind)
    fault.injected = True
    return fault


@dataclass(frozen=True)
class FaultRule:
    """One ``(trigger, fault)`` rule.

    :ivar trigger: ``packet`` / ``syscall`` / ``instret``.
    :ivar at: which firing point -- packet ordinal (1-based), syscall
        ordinal (1-based; scoped to :attr:`syscall` when set, global
        otherwise), or absolute instruction tick.
    :ivar syscall: restrict a ``syscall`` trigger to this syscall number.
    :ivar action: ``fault`` (raise :attr:`fault_kind`), ``error``
        (syscall returns ``ERR`` without running), ``corrupt`` (XOR the
        payload with :attr:`arg`), ``truncate`` (keep :attr:`arg`
        leading bytes), ``drop`` (suppress the packet entirely).
    :ivar arg: the corrupt mask / truncate length.
    """

    trigger: str
    at: int
    action: str = "fault"
    syscall: Optional[int] = None
    fault_kind: str = "InjectedFault"
    detail: str = ""
    arg: int = 0xFF

    def __post_init__(self) -> None:
        if self.trigger not in _TRIGGERS:
            raise ValueError(f"unknown trigger {self.trigger!r}")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")

    def describe(self) -> str:
        """Stable one-line description (journal markers embed this)."""
        scope = f" sys={self.syscall}" if self.syscall is not None else ""
        tail = f" {self.detail}" if self.detail else ""
        return f"{self.trigger}@{self.at}{scope} {self.action}{tail}"

    def to_json_dict(self) -> dict:
        return {
            "trigger": self.trigger,
            "at": self.at,
            "action": self.action,
            "syscall": self.syscall,
            "fault_kind": self.fault_kind,
            "detail": self.detail,
            "arg": self.arg,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FaultRule":
        return cls(
            trigger=d["trigger"],
            at=d["at"],
            action=d.get("action", "fault"),
            syscall=d.get("syscall"),
            fault_kind=d.get("fault_kind", "InjectedFault"),
            detail=d.get("detail", ""),
            arg=d.get("arg", 0xFF),
        )


@dataclass(frozen=True)
class InjectedPacketNote:
    """Journal event recording that the following packet slot was
    tampered with (or that a packet was dropped from it)."""

    note: str

    def deliver(self, machine) -> None:
        machine.note_injected_fault("InjectedFault", self.note, journal=False)

    def __repr__(self) -> str:
        return f"InjectedPacketNote({self.note!r})"


@dataclass(frozen=True)
class InjectedMachineFault:
    """Journal event that arms a fault for the machine's next loop check."""

    kind: str
    detail: str

    def deliver(self, machine) -> None:
        machine._pending_fault = build_fault(self.kind, self.detail)

    def __repr__(self) -> str:
        return f"InjectedMachineFault({self.kind}, {self.detail!r})"


class SyscallFaultInjector(Plugin):
    """Counts syscalls and arms the machine's override at rule matches.

    Registered by :meth:`FaultPlan.apply` inside the scenario's setup, so
    a recording and its replay carry identical injectors -- the firing
    points are a deterministic function of the syscall stream.
    """

    name = "fault-injector"

    def __init__(self, rules: Sequence[FaultRule]) -> None:
        super().__init__()
        self._rules = [r for r in rules if r.trigger == "syscall"]
        self._total = 0
        self._per_number: dict = {}

    def on_syscall_enter(self, machine, thread, number, args) -> None:
        self._total += 1
        n = self._per_number[number] = self._per_number.get(number, 0) + 1
        for rule in self._rules:
            if rule.syscall is not None:
                if number != rule.syscall or n != rule.at:
                    continue
            elif self._total != rule.at:
                continue
            note = f"syscall {number} overridden ({rule.describe()})"
            if rule.action == "error":
                machine.inject_syscall_result(ERR, note)
            else:
                machine.inject_syscall_fault(
                    build_fault(rule.fault_kind, rule.detail or note), note
                )
            return


def _mutate_packet(packet: Packet, rule: FaultRule) -> Packet:
    if rule.action == "truncate":
        payload = packet.payload[: max(rule.arg, 0)]
    else:  # corrupt
        mask = rule.arg & 0xFF
        payload = bytes(b ^ mask for b in packet.payload)
    return Packet(
        src_ip=packet.src_ip,
        src_port=packet.src_port,
        dst_ip=packet.dst_ip,
        dst_port=packet.dst_port,
        payload=payload,
    )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of fault rules plus watchdog/taint budgets.

    Budgets ride along with the rules so one plan fully describes a
    chaos configuration: :meth:`apply` folds the watchdog budgets into
    the scenario's :class:`~repro.emulator.machine.MachineConfig`, and
    :meth:`taint_policy` yields the budgeted
    :class:`~repro.taint.policy.TaintPolicy` for the analysis plugin.
    """

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)
    instruction_budget: Optional[int] = None
    syscall_step_budget: Optional[int] = None
    max_tainted_bytes: Optional[int] = None
    max_prov_nodes: Optional[int] = None

    def apply(self, scenario: Scenario) -> Scenario:
        """A new scenario with this plan's rules and budgets woven in."""
        packet_rules = {r.at: r for r in self.rules if r.trigger == "packet"}
        events = []
        ordinal = 0
        for at, event in scenario.events:
            if isinstance(event, PacketEvent):
                ordinal += 1
                rule = packet_rules.get(ordinal)
                if rule is not None and rule.action in ("corrupt", "truncate", "drop"):
                    note = f"packet {ordinal} {rule.action} ({rule.describe()})"
                    events.append((at, InjectedPacketNote(note)))
                    if rule.action != "drop":
                        events.append((at, PacketEvent(_mutate_packet(event.packet, rule))))
                    continue
            events.append((at, event))
        for rule in self.rules:
            if rule.trigger == "instret":
                detail = rule.detail or f"injected at tick {rule.at}"
                events.append((rule.at, InjectedMachineFault(rule.fault_kind, detail)))

        config = scenario.config or MachineConfig()
        if self.instruction_budget is not None or self.syscall_step_budget is not None:
            config = dataclasses.replace(
                config,
                instruction_budget=self.instruction_budget,
                syscall_step_budget=self.syscall_step_budget,
            )

        setup = scenario.setup
        syscall_rules = tuple(r for r in self.rules if r.trigger == "syscall")
        if syscall_rules:
            def setup_with_injector(machine, _setup=scenario.setup, _rules=syscall_rules):
                _setup(machine)
                machine.plugins.register(SyscallFaultInjector(_rules))

            setup = setup_with_injector

        return Scenario(
            name=f"{scenario.name}+faults",
            setup=setup,
            events=tuple(events),
            config=config,
            max_instructions=scenario.max_instructions,
        )

    def taint_policy(self, base: Optional[TaintPolicy] = None) -> Optional[TaintPolicy]:
        """*base* (or the default policy) with this plan's taint budgets,
        or None when the plan imposes none (caller keeps its default)."""
        if self.max_tainted_bytes is None and self.max_prov_nodes is None:
            return base
        return dataclasses.replace(
            base or TaintPolicy(),
            max_tainted_bytes=self.max_tainted_bytes,
            max_prov_nodes=self.max_prov_nodes,
        )

    def to_json_dict(self) -> dict:
        return {
            "rules": [rule.to_json_dict() for rule in self.rules],
            "instruction_budget": self.instruction_budget,
            "syscall_step_budget": self.syscall_step_budget,
            "max_tainted_bytes": self.max_tainted_bytes,
            "max_prov_nodes": self.max_prov_nodes,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            rules=tuple(FaultRule.from_json_dict(r) for r in d.get("rules", ())),
            instruction_budget=d.get("instruction_budget"),
            syscall_step_budget=d.get("syscall_step_budget"),
            max_tainted_bytes=d.get("max_tainted_bytes"),
            max_prov_nodes=d.get("max_prov_nodes"),
        )

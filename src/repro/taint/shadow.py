"""Shadow state: page-organised shadow memory and register banks.

The paper keeps "a shadow memory and a shadow register bank" as hash
maps (§V-A).  Ours are:

* :class:`ShadowMemory` -- ``physical address -> provenance list``,
  organised as sparse **4 KiB shadow pages**, each a ``{paddr: prov}``
  dict holding only that page's tainted bytes.  Keying on *physical*
  addresses is what makes the analysis whole-system: a byte injected
  across address spaces keeps its shadow entry because it keeps its
  physical location.  The page table doubles as the **dirty-page
  index** -- only pages holding at least one tainted byte exist in it.

  Each dirty page also carries a lazily-maintained **summary word**
  (the flag cache): the OR of its bytes' tag-class bits
  (:data:`SUMMARY_NETFLOW` / :data:`SUMMARY_PROCESS` /
  :data:`SUMMARY_FILE` / :data:`SUMMARY_EXPORT`), so the detector's
  confluence pre-check is a single mask test, plus per-page epoch
  counters that let the block translator cache a byte-precise
  "this block's fetch range is clean" verdict across dispatches.

* :class:`ShadowRegisters` -- one provenance list per architectural
  register, *per thread*, with a ``tainted`` count for the tracker's
  O(1) bank-clean gate.

Range operations take ``(start, length)`` pairs; scattered accesses
use the ``*_bytes`` variants over per-byte ``paddrs`` tuples.  Bulk
ops (:meth:`ShadowMemory.append_range`, :meth:`ShadowMemory.copy_range`)
are **interner-counter exact**: they perform the same memoised algebra
calls the per-byte loops would.  ``taint/reference.py`` keeps the
byte-at-a-time semantics as the oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.isa.registers import NUM_REGS, Reg
from repro.taint.provenance import EMPTY, append_tag, prov_union
from repro.taint.tags import Tag

Prov = Tuple[Tag, ...]

#: Shadow pages are 4 KiB -- independent of the guest's 256-byte MMU
#: pages.  Larger shadow pages mean fewer probes on the clean path; the
#: dirty-byte structure inside a page stays sparse either way.
SHADOW_PAGE_SHIFT = 12
SHADOW_PAGE_SIZE = 1 << SHADOW_PAGE_SHIFT

#: Summary-word (flag cache) bits: bit ``1 << (TagType - 1)`` set when
#: any byte of the page carries a tag of that class.
SUMMARY_NETFLOW = 1  # TagType.NETFLOW
SUMMARY_PROCESS = 2  # TagType.PROCESS
SUMMARY_FILE = 4  # TagType.FILE (code/image provenance)
SUMMARY_EXPORT = 8  # TagType.EXPORT_TABLE

#: value-keyed memo of provenance list -> summary class mask.  Shared
#: process-wide (masks depend only on tag types, never on interners).
_CLASS_MEMO: Dict[Prov, int] = {}


def prov_class_mask(prov: Prov) -> int:
    """OR of ``1 << (tag.type - 1)`` over *prov* (0 for clean)."""
    if not prov:
        return 0
    mask = _CLASS_MEMO.get(prov)
    if mask is None:
        mask = 0
        for tag in prov:
            mask |= 1 << (tag.type - 1)
        _CLASS_MEMO[prov] = mask
    return mask


class ShadowMemory:
    """Sparse byte-granular shadow over physical memory, in 4 KiB pages.

    Invariants: no page is ever empty (``page absent`` == "these 4 KiB
    carry no taint", the all-clean fast exit); no entry maps to an empty
    provenance list; when a page's summary word is cached it equals the
    OR of its bytes' tag-class masks.
    """

    __slots__ = (
        "_pages",
        "_count",
        "_union",
        "_append",
        "_seed",
        "_summaries",
        "_epochs",
        "promotions",
        "summary_hits",
        "summary_misses",
    )

    def __init__(self, interner=None) -> None:
        #: shadow page number -> ``{paddr: prov}`` page (absent = clean).
        self._pages: Dict[int, Dict[int, Prov]] = {}
        self._count = 0
        if interner is not None:
            self._union = interner.union
            self._append = interner.append
            self._seed = interner.seed
        else:
            self._union = prov_union
            self._append = append_tag
            self._seed = lambda tag: (tag,)
        #: flag cache: page number -> summary word (absent = not cached).
        self._summaries: Dict[int, int] = {}
        #: page number -> mutation epoch (bumped on every content change).
        self._epochs: Dict[int, int] = {}
        #: Always 0: pages have a single form, so nothing is ever
        #: promoted.  Kept because the end-to-end benchmark reads it.
        self.promotions = 0
        self.summary_hits = 0
        self.summary_misses = 0

    # ------------------------------------------------------------------
    # flag cache / epochs
    # ------------------------------------------------------------------

    def _bump(self, number: int) -> None:
        epochs = self._epochs
        epochs[number] = epochs.get(number, 0) + 1

    def page_epoch(self, number: int) -> int:
        """Monotonic content-mutation counter for shadow page *number*.

        Bumped on every content change (including page deletion), so an
        unchanged epoch certifies any cached byte-precise verdict about
        the page (the translator's per-block fetch-range cleanliness
        bit).
        """
        return self._epochs.get(number, 0)

    def page_summary(self, number: int) -> int:
        """Summary word of page *number*: OR of its bytes' class masks.

        0 for absent (clean) pages.  Served from the flag cache when
        possible; recomputed exactly (and re-cached) otherwise.
        """
        page = self._pages.get(number)
        if page is None:
            return 0
        summary = self._summaries.get(number)
        if summary is not None:
            self.summary_hits += 1
            return summary
        self.summary_misses += 1
        summary = 0
        for prov in page.values():
            summary |= prov_class_mask(prov)
        self._summaries[number] = summary
        return summary

    def _sum_drop(self, number: int) -> None:
        self._summaries.pop(number, None)

    def _sum_or(self, number: int, mask: int) -> None:
        """OR *mask* into a cached summary (pure-add ops only)."""
        summaries = self._summaries
        if number in summaries:
            summaries[number] |= mask

    # ------------------------------------------------------------------
    # single-byte access
    # ------------------------------------------------------------------

    def get(self, paddr: int) -> Prov:
        page = self._pages.get(paddr >> SHADOW_PAGE_SHIFT)
        if page is None:
            return EMPTY
        return page.get(paddr, EMPTY)

    def set(self, paddr: int, prov: Prov) -> None:
        pages = self._pages
        number = paddr >> SHADOW_PAGE_SHIFT
        page = pages.get(number)
        if page is None:
            if not prov:
                return
            pages[number] = {paddr: prov}
            self._count += 1
            self._summaries[number] = prov_class_mask(prov)
            self._bump(number)
            return
        if prov:
            old = page.get(paddr)
            if old is None:
                self._count += 1
                self._sum_or(number, prov_class_mask(prov))
            elif old is not prov and old != prov:
                self._sum_drop(number)
            page[paddr] = prov
            self._bump(number)
        elif page.pop(paddr, None) is not None:
            self._count -= 1
            self._sum_drop(number)
            self._bump(number)
            if not page:
                del pages[number]

    # ------------------------------------------------------------------
    # contiguous (start, length) ranges
    # ------------------------------------------------------------------

    def _chunks(self, start: int, length: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(page_number, pos, page_end)`` per touched shadow page."""
        pos, end = start, start + length
        while pos < end:
            number = pos >> SHADOW_PAGE_SHIFT
            page_end = min(end, (number + 1) << SHADOW_PAGE_SHIFT)
            yield number, pos, page_end
            pos = page_end

    def get_range(self, start: int, length: int) -> Prov:
        """Union of the provenance of ``length`` bytes from ``start``,
        one memoised union per non-clean byte in ascending address
        order."""
        out: Prov = EMPTY
        pages = self._pages
        union = self._union
        for number, pos, page_end in self._chunks(start, length):
            page = pages.get(number)
            if page is None:
                continue
            for paddr in range(pos, page_end):
                prov = page.get(paddr)
                if prov:
                    out = union(out, prov)
        return out

    def set_range(self, start: int, length: int, prov: Prov) -> None:
        if not prov:
            self.clear_range(start, length)
            return
        pages = self._pages
        for number, pos, page_end in self._chunks(start, length):
            page = pages.get(number)
            if page is None:
                page = pages[number] = {}
            before = len(page)
            for paddr in range(pos, page_end):
                page[paddr] = prov
            self._count += len(page) - before
            if not before:
                self._summaries[number] = prov_class_mask(prov)
            elif len(page) != before + page_end - pos:
                self._sum_drop(number)  # overwrote existing entries
            else:
                self._sum_or(number, prov_class_mask(prov))
            self._bump(number)

    def clear_range(self, start: int, length: int) -> None:
        pages = self._pages
        for number, pos, page_end in self._chunks(start, length):
            page = pages.get(number)
            if page is None:  # absent page: skip the whole 4 KiB in one probe
                continue
            pop = page.pop
            removed = 0
            for paddr in range(pos, page_end):
                if pop(paddr, None) is not None:
                    removed += 1
            if removed:
                self._count -= removed
                self._sum_drop(number)
                self._bump(number)
                if not page:
                    del pages[number]

    # ------------------------------------------------------------------
    # bulk taint ops (interner-counter exact vs the per-byte loops)
    # ------------------------------------------------------------------

    def append_range(self, start: int, length: int, tag: Tag) -> None:
        """``shadow[p] = append(shadow[p], tag)`` for each byte of the range.

        Equivalent to the tracker's per-byte seeding loop, including its
        interner accounting: a clean page takes the (uncounted) seed
        path in one :meth:`set_range`; a dirty page runs the per-byte
        loop itself.
        """
        pages = self._pages
        append = self._append
        for number, pos, page_end in self._chunks(start, length):
            if number not in pages:
                # all-clean run: every byte takes the seed path (uncounted).
                self.set_range(pos, page_end - pos, self._seed(tag))
                continue
            for paddr in range(pos, page_end):
                self.set(paddr, append(self.get(paddr), tag))

    def copy_range(self, dst: int, src: int, length: int, tag: Optional[Tag] = None) -> int:
        """``dst[i] <- src[i]`` tag copy (``append(tag)`` en route if given).

        Returns the number of per-byte appends the equivalent per-byte
        loop would report (its ``process_tag_appends`` contribution).
        Matches the per-byte zip-order semantics exactly: the rippling
        forward-overlap case (``src < dst < src+length``) runs the
        literal loop over the whole range; otherwise each chunk whose
        source page is clean becomes one :meth:`clear_range`.
        """
        if length <= 0 or (dst == src and tag is None):
            return 0
        if src < dst < src + length:
            return self._copy_bytes(dst, src, length, tag)
        appends = 0
        pos = 0
        pages = self._pages
        while pos < length:
            s, d = src + pos, dst + pos
            chunk = min(
                length - pos,
                (((s >> SHADOW_PAGE_SHIFT) + 1) << SHADOW_PAGE_SHIFT) - s,
                (((d >> SHADOW_PAGE_SHIFT) + 1) << SHADOW_PAGE_SHIFT) - d,
            )
            if s >> SHADOW_PAGE_SHIFT in pages:
                appends += self._copy_bytes(d, s, chunk, tag)
            else:
                # clean source: per-byte writes EMPTY everywhere (uncounted).
                self.clear_range(d, chunk)
            pos += chunk
        return appends

    def _copy_bytes(self, dst: int, src: int, length: int, tag: Optional[Tag]) -> int:
        """The literal per-byte copy loop (overlap- and counter-faithful)."""
        append = self._append
        appends = 0
        for i in range(length):
            prov = self.get(src + i)
            if prov and tag is not None:
                prov = append(prov, tag)
                appends += 1
            self.set(dst + i, prov)
        return appends

    # ------------------------------------------------------------------
    # scattered per-byte paddr tuples (CPU accesses can span guest pages)
    # ------------------------------------------------------------------

    def get_bytes(self, paddrs: Iterable[int]) -> Prov:
        """Union of the provenance of several bytes (word loads)."""
        pages = self._pages
        if not pages:
            return EMPTY
        out: Prov = EMPTY
        union = self._union
        previous = -1
        page: Optional[Dict[int, Prov]] = None
        for paddr in paddrs:
            number = paddr >> SHADOW_PAGE_SHIFT
            if number != previous:
                page = pages.get(number)
                previous = number
            if page is None:
                continue
            prov = page.get(paddr)
            if prov:
                out = union(out, prov)
        return out

    def set_bytes(self, paddrs: Iterable[int], prov: Prov) -> None:
        if prov:
            for paddr in paddrs:
                self.set(paddr, prov)
        else:
            self.clear_bytes(paddrs)

    def clear_bytes(self, paddrs: Iterable[int]) -> None:
        for paddr in paddrs:
            self.set(paddr, EMPTY)

    # ------------------------------------------------------------------
    # cleanliness probes
    # ------------------------------------------------------------------

    def pages_clean(self, paddrs: Sequence[int]) -> bool:
        """True if no byte of *paddrs* lands on a dirty shadow page.

        Conservative in the cheap direction: a hit on a dirty page whose
        *particular* bytes are clean reports False, sending the caller
        to the exact (slow) path.  Probes each **distinct** page once:
        an 8-byte operand costs one probe (two when it straddles), never
        one per byte, and scattered multi-page tuples are deduped.
        """
        pages = self._pages
        if not pages or not paddrs:
            return True
        first = paddrs[0] >> SHADOW_PAGE_SHIFT
        if first in pages:
            return False
        last = paddrs[-1] >> SHADOW_PAGE_SHIFT
        if last == first:
            return True
        if last in pages:
            return False
        if len(paddrs) > 2:
            # scattered frames: middle bytes may touch further pages.
            seen = {first, last}
            for paddr in paddrs[1:-1]:
                number = paddr >> SHADOW_PAGE_SHIFT
                if number not in seen:
                    if number in pages:
                        return False
                    seen.add(number)
        return True

    def bytes_clean(self, paddrs: Sequence[int]) -> bool:
        """Byte-precise cleanliness of *paddrs* (the flag-cache upgrade
        of :meth:`pages_clean`): bytes on dirty pages are still clean
        if their own entries are -- one membership probe each."""
        pages = self._pages
        if not pages:
            return True
        previous = -1
        page: Optional[Dict[int, Prov]] = None
        for paddr in paddrs:
            number = paddr >> SHADOW_PAGE_SHIFT
            if number != previous:
                page = pages.get(number)
                previous = number
            if page is not None and paddr in page:
                return False
        return True

    def range_clean(self, start: int, length: int) -> bool:
        """Byte-precise cleanliness of a contiguous physical range."""
        pages = self._pages
        if not pages:
            return True
        for number, pos, page_end in self._chunks(start, length):
            page = pages.get(number)
            if page is None:
                continue
            if len(page) <= page_end - pos:
                for paddr in page:
                    if pos <= paddr < page_end:
                        return False
            else:
                for paddr in range(pos, page_end):
                    if paddr in page:
                        return False
        return True

    def page_dirty(self, number: int) -> bool:
        """True if shadow page *number* holds at least one tainted byte.

        The single-page form of :meth:`pages_clean`, for callers that
        already know their footprint lies in one shadow page -- the
        block translator's per-block fetch-footprint probe (a whole
        translated block sits inside one 256-byte MMU page, which can
        never straddle a 4 KiB shadow page).
        """
        return number in self._pages

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def tainted_bytes(self) -> int:
        """How many physical bytes currently carry provenance (E12)."""
        return self._count

    @property
    def dirty_page_count(self) -> int:
        """How many 4 KiB shadow pages hold at least one tainted byte.

        With :attr:`tainted_bytes` this gives shadow-page *occupancy*
        (tainted bytes per dirty page) -- the density figure that says
        whether taint is concentrated (cheap page probes) or smeared
        across many pages (the tag-pressure failure mode).
        """
        return len(self._pages)

    def dirty_pages(self) -> List[int]:
        """Shadow page numbers holding at least one tainted byte."""
        return sorted(self._pages)

    def items(self) -> Iterator[Tuple[int, Prov]]:
        for page in self._pages.values():
            yield from page.items()

    def snapshot(self) -> Dict[int, Prov]:
        """Flat ``paddr -> provenance`` copy (differential comparisons)."""
        return dict(self.items())


class ShadowRegisters:
    """Provenance lists for one thread's register file (plus flags)."""

    __slots__ = ("regs", "flags", "tainted")

    def __init__(self) -> None:
        self.regs: List[Prov] = [EMPTY] * NUM_REGS
        self.flags: Prov = EMPTY
        #: count of registers with non-empty provenance (flags excluded);
        #: lets the tracker's fast gate test bank cleanliness in O(1).
        self.tainted = 0

    def get(self, reg: Reg) -> Prov:
        return self.regs[reg]

    def set(self, reg: Reg, prov: Prov) -> None:
        old = self.regs[reg]
        if prov:
            if not old:
                self.tainted += 1
        elif old:
            self.tainted -= 1
        self.regs[reg] = prov

    def snapshot(self) -> Dict[object, Prov]:
        """Non-empty register provenance (differential comparisons)."""
        out: Dict[object, Prov] = {
            Reg(i): prov for i, prov in enumerate(self.regs) if prov
        }
        if self.flags:
            out["flags"] = self.flags
        return out


class ShadowBank:
    """Per-thread shadow register banks, switched with the scheduler."""

    def __init__(self) -> None:
        self._banks: Dict[int, ShadowRegisters] = {}

    def for_thread(self, tid: int) -> ShadowRegisters:
        bank = self._banks.get(tid)
        if bank is None:
            bank = ShadowRegisters()
            self._banks[tid] = bank
        return bank

    def drop_thread(self, tid: int) -> None:
        self._banks.pop(tid, None)

    def any_tainted(self) -> bool:
        """True if any thread's bank holds taint (registers or flags)."""
        return any(b.tainted or b.flags for b in self._banks.values())

    def snapshot(self) -> Dict[int, Dict[object, Prov]]:
        """Non-empty banks only (differential comparisons)."""
        out = {}
        for tid, bank in self._banks.items():
            snap = bank.snapshot()
            if snap:
                out[tid] = snap
        return out

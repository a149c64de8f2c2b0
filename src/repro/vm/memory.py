"""Sparse paged guest memory.

A 64-bit address space backed by a dict of 4 KiB pages.  Pages must be
explicitly mapped (by the loader or an allocator runtime) before access;
touching an unmapped page raises :class:`~repro.errors.VMFault`, the
moral equivalent of SIGSEGV.

Mapped pages are *demand-zero*, as on a real kernel: :meth:`Memory.map_range`
only records a page as mapped, and the page gets its backing ``bytearray``
the first time an access touches it.  A run that maps an 8 MiB stack and
uses a few KiB of it allocates a few pages, not 2,048.  The in-page fast
paths of :meth:`Memory.read_int` / :meth:`Memory.write_int` see only
backed pages; their fallback (like every other accessor) backs an
untouched page before using it.  Every observable treats an untouched
page as a mapped page of zeros: :meth:`Memory.is_mapped`,
:meth:`Memory.mapped_bytes`, :meth:`Memory.mapped_page_indices`,
:meth:`Memory.page_contents` and unmapping.

Each backed page also has a quadword view, ``memoryview(page).cast("Q")``,
that shares the page's buffer.  An unsigned, 8-aligned, 8-byte
:meth:`Memory.read_int` / :meth:`Memory.write_int` on a backed page is
one index into that view.  Almost every guest data access is one: stack
slots and a check's low-fat SIZES and redzone SIZE loads.
Every other access (sizes 1, 2 and 4, signed reads, unaligned
addresses, untouched and unmapped pages) slices the ``bytearray``.  The
invariant is that ``_words`` and ``_pages`` have the same keys and each
view shares its page's buffer.  Two places keep it: :meth:`_back`
creates a view whenever a page gets backing, and :meth:`unmap_range`
drops it.  No two page indices share one ``bytearray``.
Pages are never resized, so exporting their buffer is safe.  A ``"Q"``
view reads native byte order, so views exist only on a little-endian
host.  On a big-endian host ``_words`` stays empty and every access
takes the byte path.

A store that straddles pages checks every page before it writes a
byte, so a store that faults commits nothing, as on x86.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Set

from repro.errors import VMFault

PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1
_M64 = (1 << 64) - 1
_ZERO_PAGE = bytes(PAGE_SIZE)
#: Guest memory is little-endian and a ``"Q"`` view reads host order.
_WORD_VIEWS = sys.byteorder == "little"


class Memory:
    """Sparse byte-addressable memory with page-granular mapping."""

    __slots__ = ("_pages", "_untouched", "_words")

    def __init__(self) -> None:
        #: Backed pages, by page index.
        self._pages: Dict[int, bytearray] = {}
        #: Mapped pages no access has touched yet (disjoint from _pages).
        self._untouched: Set[int] = set()
        #: A quadword view of each backed page, sharing its buffer: the
        #: same keys as _pages on a little-endian host, empty otherwise.
        self._words: Dict[int, memoryview] = {}

    def _back(self, page_index: int) -> Optional[bytearray]:
        """The backing of *page_index*, allocated on first touch; None
        when the page is not mapped."""
        page = self._pages.get(page_index)
        if page is None and page_index in self._untouched:
            self._untouched.discard(page_index)
            page = self._pages[page_index] = bytearray(PAGE_SIZE)
            if _WORD_VIEWS:
                self._words[page_index] = memoryview(page).cast("Q")
        return page

    # -- mapping ----------------------------------------------------------

    def map_range(self, address: int, size: int) -> None:
        """Ensure every page covering [address, address+size) is mapped."""
        if size <= 0:
            return
        first = address >> _PAGE_SHIFT
        last = (address + size - 1) >> _PAGE_SHIFT
        span = range(first, last + 1)
        self._untouched.update(span)
        self._untouched.difference_update(self._pages.keys() & span)

    def unmap_range(self, address: int, size: int) -> None:
        """Unmap all pages fully covered by [address, address+size)."""
        if size <= 0:
            return
        first = (address + _PAGE_MASK) >> _PAGE_SHIFT
        last = (address + size) >> _PAGE_SHIFT
        for page_index in range(first, last):
            self._pages.pop(page_index, None)
            self._words.pop(page_index, None)
            self._untouched.discard(page_index)

    def is_mapped(self, address: int, size: int = 1) -> bool:
        first = address >> _PAGE_SHIFT
        last = (address + size - 1) >> _PAGE_SHIFT
        pages = self._pages
        untouched = self._untouched
        return all(
            index in pages or index in untouched
            for index in range(first, last + 1)
        )

    def mapped_bytes(self) -> int:
        """Total mapped memory in bytes (for memory-overhead reporting)."""
        return (len(self._pages) + len(self._untouched)) * PAGE_SIZE

    def mapped_page_indices(self) -> list:
        """Sorted indices of all mapped pages (introspection/injection)."""
        return sorted(self._untouched.union(self._pages))

    def page_contents(self) -> Dict[int, bytes]:
        """The bytes of every mapped page, by page index (an untouched
        page reads as zeros and stays untouched)."""
        pages = self._pages
        return {
            index: bytes(pages[index]) if index in pages else _ZERO_PAGE
            for index in self.mapped_page_indices()
        }

    # -- byte access -----------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        address &= _M64
        page_index = address >> _PAGE_SHIFT
        offset = address & _PAGE_MASK
        page = self._back(page_index)
        if page is None:
            raise VMFault(address)
        if offset + size <= PAGE_SIZE:
            return bytes(page[offset : offset + size])
        # Crosses a page boundary: gather.
        out = bytearray()
        remaining = size
        while remaining:
            page = self._back(page_index)
            if page is None:
                raise VMFault(page_index << _PAGE_SHIFT)
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            remaining -= chunk
            page_index += 1
            offset = 0
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        address &= _M64
        page_index = address >> _PAGE_SHIFT
        offset = address & _PAGE_MASK
        size = len(data)
        page = self._back(page_index)
        if page is None:
            raise VMFault(address)
        if offset + size <= PAGE_SIZE:
            page[offset : offset + size] = data
            return
        # Crosses a page boundary.  Back every page before writing any
        # byte: a store that faults commits nothing, as on x86.
        pages = [page]
        last = (address + size - 1) >> _PAGE_SHIFT
        for index in range(page_index + 1, last + 1):
            page = self._back(index)
            if page is None:
                raise VMFault(index << _PAGE_SHIFT)
            pages.append(page)
        written = 0
        for page in pages:
            chunk = min(size - written, PAGE_SIZE - offset)
            page[offset : offset + chunk] = data[written : written + chunk]
            written += chunk
            offset = 0

    def read_upto(self, address: int, size: int) -> bytes:
        """Read up to *size* bytes, stopping at the first unmapped page.

        Used by the instruction fetcher: an instruction near the end of a
        mapped range must still decode even though a full-width fetch
        window would cross into unmapped memory.
        """
        address &= _M64
        out = bytearray()
        page_index = address >> _PAGE_SHIFT
        offset = address & _PAGE_MASK
        remaining = size
        while remaining:
            page = self._back(page_index)
            if page is None:
                break
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            remaining -= chunk
            page_index += 1
            offset = 0
        return bytes(out)

    # -- integer access ------------------------------------------------------------

    def read_int(self, address: int, size: int, signed: bool = False) -> int:
        # Quadword fast path: an unsigned, aligned 8-byte read of a
        # backed page is one index into its word view.  Nearly every
        # guest data access is one (stack slots, check metadata).
        address &= _M64
        if size == 8 and not (address & 7 or signed):
            words = self._words.get(address >> _PAGE_SHIFT)
            if words is not None:
                return words[(address & _PAGE_MASK) >> 3]
        # Byte path for every other access.  Unmapped and untouched
        # pages and page-straddling reads take the slow path, which
        # backs an untouched page and raises the same VMFault a
        # byte-wise read would on an unmapped one.
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is not None:
                return int.from_bytes(
                    page[offset : offset + size], "little", signed=signed
                )
        return int.from_bytes(self.read(address, size), "little", signed=signed)

    def write_int(self, address: int, value: int, size: int) -> None:
        address &= _M64
        if size == 8 and not address & 7:
            words = self._words.get(address >> _PAGE_SHIFT)
            if words is not None:
                words[(address & _PAGE_MASK) >> 3] = value & _M64
                return
        mask = (1 << (size * 8)) - 1
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is not None:
                page[offset : offset + size] = (value & mask).to_bytes(
                    size, "little"
                )
                return
        self.write(address, (value & mask).to_bytes(size, "little"))

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (bounded by *limit*)."""
        out = bytearray()
        for index in range(limit):
            byte = self.read(address + index, 1)[0]
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)

"""Functional model of a conventional (block-interface) NVMe SSD.

This device backs the ext4 filesystem the RocksDB baseline runs on.  It
exposes byte-addressed reads/writes at logical-block (page) granularity; the
embedded page-mapped FTL (:mod:`repro.ssd.ftl`) handles overwrites and
garbage collection, whose relocation traffic is billed to the channels just
like host I/O — the "block interface tax" the ZNS literature (and the
paper's Section III) describes.

Data round-trips for real: page contents live in a dict keyed by logical
page number.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.errors import InvalidAddressError, StorageError
from repro.obs.trace import trace_leaf
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.sync import AllOf
from repro.ssd.ftl import Ftl, GcWork
from repro.ssd.geometry import SsdGeometry
from repro.ssd.latency import NandLatencyModel
from repro.ssd.metrics import IoStats

import numpy as np

__all__ = ["ConventionalSsd"]

#: Fraction of raw capacity hidden as over-provisioning space.
DEFAULT_OVERPROVISIONING = 0.125


class ConventionalSsd:
    """A page-mapped, garbage-collected block SSD."""

    def __init__(
        self,
        env: Environment,
        geometry: SsdGeometry | None = None,
        latency: NandLatencyModel | None = None,
        overprovisioning: float = DEFAULT_OVERPROVISIONING,
        name: str = "nvme0",
    ):
        if not 0.02 <= overprovisioning < 1.0:
            raise StorageError("overprovisioning fraction must be in [0.02, 1)")
        self.env = env
        self.geometry = geometry or SsdGeometry()
        self.latency = latency or NandLatencyModel()
        self.name = name
        self.page_size = self.geometry.logical_block_size

        n_phys_pages = self.geometry.capacity // self.page_size
        n_blocks = n_phys_pages // self.geometry.pages_per_block
        n_blocks -= n_blocks % self.geometry.n_channels  # even striping
        n_phys_pages = n_blocks * self.geometry.pages_per_block
        n_logical = int(n_phys_pages / (1.0 + overprovisioning))
        # Leave the FTL enough reserve headroom.
        reserve = 2
        max_logical = n_phys_pages - 2 * reserve * self.geometry.pages_per_block * (
            self.geometry.n_channels
        )
        n_logical = min(n_logical, max_logical)
        if n_logical <= 0:
            raise StorageError("geometry too small for a conventional SSD")

        self.ftl = Ftl(
            n_logical_pages=n_logical,
            n_blocks=n_blocks,
            pages_per_block=self.geometry.pages_per_block,
            n_channels=self.geometry.n_channels,
            gc_reserve_blocks=reserve,
        )
        self._channels = [
            Resource(env, capacity=1) for _ in range(self.geometry.n_channels)
        ]
        self._pages: dict[int, bytes] = {}
        self.stats = IoStats()
        #: optional fault-injection plan (see :mod:`repro.ssd.faults`)
        self.faults = None

    # -- helpers ---------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Logical bytes addressable by the host."""
        return self.ftl.n_logical_pages * self.page_size

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise InvalidAddressError(
                f"{self.name}: range [{offset}, {offset + length}) outside "
                f"capacity {self.capacity}"
            )
        if offset % self.page_size or length % self.page_size:
            raise InvalidAddressError(
                f"{self.name}: I/O must be {self.page_size}-byte aligned"
            )

    def _occupy_channel(
        self, channel: int, seconds: float, op: str = "io", nbytes: int = 0
    ) -> Generator:
        res = self._channels[channel]
        with trace_leaf(
            self.env,
            f"nand.{op}",
            "flash",
            lane=f"{self.name}/ch{channel}",
            busy=seconds,
            bytes=nbytes,
        ) as span:
            with res.request() as req:
                t0 = self.env.now
                yield req
                if span is not None:
                    span.args["wait"] = self.env.now - t0
                yield self.env.timeout(seconds)
        self.stats.record_channel_busy(channel, seconds)

    def _charge_per_channel(self, channel_bytes: dict[int, int], write: bool) -> Generator:
        """Charge the channels concurrently for a batched transfer."""
        procs = []
        for channel, nbytes in sorted(channel_bytes.items()):
            seconds = (
                self.latency.write_time(nbytes) if write else self.latency.read_time(nbytes)
            )
            op = "write" if write else "read"
            procs.append(
                self.env.process(self._occupy_channel(channel, seconds, op, nbytes))
            )
        if procs:
            yield AllOf(self.env, procs)

    def _charge_gc(self, gc_events: list[GcWork]) -> Generator:
        for work in gc_events:
            moved_bytes = work.moved_pages * self.page_size
            if moved_bytes:
                seconds = self.latency.read_time(moved_bytes) + self.latency.write_time(
                    moved_bytes
                )
                yield from self._occupy_channel(work.channel, seconds, "gc", moved_bytes)
                self.stats.record_gc_copy(moved_bytes)
                self.stats.record_read(moved_bytes)
                self.stats.record_write(moved_bytes)
            for _ in range(work.erased_blocks):
                yield from self._occupy_channel(
                    work.channel, self.latency.erase_time(), "erase"
                )
                self.stats.record_erase()

    # -- operations (simulation generators) --------------------------------------
    def write(self, offset: int, data: bytes) -> Generator:
        """Write page-aligned ``data`` at byte ``offset``."""
        self._check_range(offset, len(data))
        if self.faults is not None:
            self.faults.check_write()
        if not data:
            return
        n_pages = len(data) // self.page_size
        first_lpn = offset // self.page_size
        lpns = np.arange(first_lpn, first_lpn + n_pages)
        allocation, gc_events = self.ftl.write_pages(lpns)
        yield from self._charge_gc(gc_events)
        channel_bytes: dict[int, int] = {}
        for ch in allocation.channels:
            channel_bytes[int(ch)] = channel_bytes.get(int(ch), 0) + self.page_size
        yield from self._charge_per_channel(channel_bytes, write=True)
        for i, lpn in enumerate(lpns):
            self._pages[int(lpn)] = data[i * self.page_size : (i + 1) * self.page_size]
        self.stats.record_write(len(data))

    def read(self, offset: int, length: int) -> Generator:
        """Read ``length`` page-aligned bytes at ``offset``; returns bytes.

        Unwritten pages read back as zeroes (standard block-device
        semantics).
        """
        self._check_range(offset, length)
        if self.faults is not None:
            self.faults.check_read()
        if length == 0:
            return b""
        n_pages = length // self.page_size
        first_lpn = offset // self.page_size
        lpns = np.arange(first_lpn, first_lpn + n_pages)
        channels = self.ftl.read_channels(lpns)
        channel_bytes: dict[int, int] = {}
        for ch in channels:
            channel_bytes[int(ch)] = channel_bytes.get(int(ch), 0) + self.page_size
        yield from self._charge_per_channel(channel_bytes, write=False)
        zero = b"\x00" * self.page_size
        chunks = [self._pages.get(int(lpn), zero) for lpn in lpns]
        self.stats.record_read(length)
        return b"".join(chunks)

    def trim(self, offset: int, length: int) -> Generator:
        """Discard a page-aligned range (host TRIM); near-free for the device."""
        self._check_range(offset, length)
        n_pages = length // self.page_size
        first_lpn = offset // self.page_size
        lpns = np.arange(first_lpn, first_lpn + n_pages)
        self.ftl.trim_pages(lpns)
        for lpn in lpns:
            self._pages.pop(int(lpn), None)
        with trace_leaf(self.env, "nand.trim", "flash", busy=self.latency.command_overhead):
            yield self.env.timeout(self.latency.command_overhead)

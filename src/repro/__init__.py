"""RedFat reproduction: hardening binaries against more memory errors.

Public API quick map:

- stable facade:          :mod:`repro.api` —
                          ``harden(...)``, ``profile(...)``, ``run(...)``
- telemetry:              :class:`repro.telemetry.Telemetry`
                          (``--metrics`` on the CLI)
- compile a workload:     :func:`repro.cc.compile_source`
- harden a binary:        :class:`repro.core.RedFat`,
                          :class:`repro.core.RedFatOptions`
- profile workflow:       :class:`repro.core.Profiler`,
                          :class:`repro.core.AllowList`
- run a binary:           :func:`repro.vm.run_binary`,
                          :meth:`repro.cc.CompiledProgram.run`
- hardened runtime:       :class:`repro.runtime.RedFatRuntime`
- Memcheck comparator:    the ``shadow`` backend of
                          :mod:`repro.runtime.registry`, costed by
                          :meth:`repro.vm.runtime_iface.RuntimeEnvironment.modelled_cost`
- experiments:            ``python -m repro.bench.{table1,table2,figure8,falsepos}``
"""

from repro.errors import (
    AllocatorError,
    AssemblyError,
    BinaryFormatError,
    CompileError,
    EncodingError,
    GuestMemoryError,
    LoaderError,
    ReproError,
    RewriteError,
    VMError,
    VMFault,
)
from repro.binfmt import Binary, BinaryBuilder, BinaryType
from repro.cc import CompiledProgram, compile_source
from repro.core import AllowList, Profiler, RedFat, RedFatOptions
from repro.runtime import GlibcRuntime, LowFatAllocator, RedFatRuntime
from repro.telemetry import Telemetry
from repro.vm import run_binary
from repro import api

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "AssemblyError",
    "EncodingError",
    "BinaryFormatError",
    "LoaderError",
    "VMError",
    "VMFault",
    "GuestMemoryError",
    "AllocatorError",
    "RewriteError",
    "CompileError",
    "Binary",
    "BinaryBuilder",
    "BinaryType",
    "CompiledProgram",
    "compile_source",
    "RedFat",
    "RedFatOptions",
    "Profiler",
    "AllowList",
    "GlibcRuntime",
    "LowFatAllocator",
    "RedFatRuntime",
    "Telemetry",
    "run_binary",
    "api",
    "__version__",
]

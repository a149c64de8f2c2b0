"""The runtime registry: named, pluggable preloadable runtimes.

One entry point serves every layer that needs a runtime —
``RedFat.create_runtime``, ``api.run``/``profile``, the CLI, the farm
and the bench harness all call
:func:`create` with a *spec*:

    "redfat"                      a registered name
    "s2malloc:seed=7,mode=log"    a name plus ``key=val`` options

Spec options are coerced (``true``/``false`` -> bool, digits -> int)
and override keyword options from the caller, so a user-supplied spec
string always wins over plumbing defaults.  Unknown names raise
:class:`~repro.errors.UnknownRuntimeError`, which lists what *is*
registered.

Registering a backend makes it appear everywhere at once: ``redfat
runtimes`` (discoverability), ``redfat run/bench/farm --runtime`` and
the shootout matrix.  Every factory
accepts at least ``mode``/``seed``/``telemetry`` keywords; baseline
runtimes ignore what they cannot use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Union

from repro.errors import UnknownRuntimeError
from repro.layout import REDZONE_SIZE
from repro.vm.runtime_iface import RuntimeEnvironment


@dataclass(frozen=True)
class RuntimeSpec:
    """A parsed ``name[:key=val,...]`` runtime selector."""

    name: str
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RuntimeInfo:
    """One registered backend."""

    name: str
    factory: Callable[..., RuntimeEnvironment]
    description: str
    capabilities: frozenset = frozenset()
    #: True when the defense needs the rewritten binary (inlined checks).
    needs_hardened_binary: bool = False


_REGISTRY: Dict[str, RuntimeInfo] = {}


def register(info: RuntimeInfo) -> RuntimeInfo:
    """Register a backend; duplicate names are a programming error."""
    if info.name in _REGISTRY:
        raise ValueError(f"runtime {info.name!r} registered twice")
    _REGISTRY[info.name] = info
    return info


def names() -> List[str]:
    """All registered names, sorted."""
    return sorted(_REGISTRY)


def available() -> List[RuntimeInfo]:
    """All registered backends, sorted by name (for ``redfat runtimes``)."""
    return [_REGISTRY[name] for name in names()]


def resolve(name: str) -> RuntimeInfo:
    """Look up one backend by name."""
    info = _REGISTRY.get(name)
    if info is None:
        raise UnknownRuntimeError(name, names())
    return info


def _coerce(text: str):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text, 0)
    except ValueError:
        return text


def parse_spec(spec: Union[str, RuntimeSpec]) -> RuntimeSpec:
    """Parse ``name`` / ``name:key=val,key=val`` into a :class:`RuntimeSpec`."""
    if isinstance(spec, RuntimeSpec):
        return spec
    name, sep, rest = spec.partition(":")
    options: dict = {}
    if sep:
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq or not key.strip():
                raise ValueError(
                    f"malformed runtime option {item!r} in spec {spec!r} "
                    "(expected key=value)"
                )
            options[key.strip()] = _coerce(value.strip())
    return RuntimeSpec(name.strip(), options)


def create(
    spec: Union[str, RuntimeSpec, RuntimeEnvironment], **options
) -> RuntimeEnvironment:
    """Instantiate the runtime *spec* names; instances pass through.

    Keyword *options* are plumbing defaults (mode, seed, telemetry, ...);
    options embedded in the spec string override them.
    """
    if isinstance(spec, RuntimeEnvironment):
        return spec
    parsed = parse_spec(spec)
    info = resolve(parsed.name)
    merged = dict(options)
    merged.update(parsed.options)
    try:
        return info.factory(**merged)
    except TypeError as error:
        raise ValueError(
            f"runtime {info.name!r} rejected options "
            f"{sorted(merged)}: {error}"
        ) from error


def deploy(spec: str, binary, harden: Callable[[], object], *,
           mode: str, seed: int):
    """``(binary, runtime)`` for running a program under backend *spec*.

    A backend that needs the hardened binary (``redfat``) runs
    ``harden().binary`` under ``harden().create_runtime``, which maps
    trampoline sites back to the original code.  Every other backend is
    preloaded under the unhardened *binary*: the zoo detects through the
    access hook, and a hardened binary's inlined checks would pass
    vacuously on its non-fat pointers.  *harden* is called only when
    the hardened binary is needed.
    """
    if resolve(parse_spec(spec).name).needs_hardened_binary:
        result = harden()
        return result.binary, result.create_runtime(
            mode=mode, runtime=spec, seed=seed)
    return binary, create(spec, mode=mode, seed=seed)


# -- the built-in zoo -------------------------------------------------------


def _make_glibc(mode: str = "abort", seed: int = 1, telemetry=None):
    # The unprotected baseline has no error channel; the standard
    # options are accepted so ``--runtime glibc`` works everywhere.
    from repro.runtime.glibc import GlibcRuntime

    return GlibcRuntime()


def _make_redfat(mode: str = "abort", seed: int = 1, telemetry=None,
                 randomize: bool = False):
    from repro.runtime.redfat import RedFatRuntime

    return RedFatRuntime(mode=mode, randomize=randomize, seed=seed,
                         telemetry=telemetry)


def _make_shadow(mode: str = "log", seed: int = 1, telemetry=None,
                 redzone: int = REDZONE_SIZE):
    from repro.runtime.shadow import ShadowRuntime

    return ShadowRuntime(mode=mode, redzone=redzone)


def _make_s2malloc(mode: str = "log", seed: int = 1, telemetry=None):
    from repro.runtime.backends.s2malloc import S2MallocRuntime

    return S2MallocRuntime(mode=mode, seed=seed, telemetry=telemetry)


def _make_camp(mode: str = "log", seed: int = 1, telemetry=None):
    from repro.runtime.backends.camp import CampRuntime

    return CampRuntime(mode=mode, seed=seed, telemetry=telemetry)


register(RuntimeInfo(
    name="glibc",
    factory=_make_glibc,
    description="unprotected baseline heap (bump + free lists, region 0)",
))
register(RuntimeInfo(
    name="redfat",
    factory=_make_redfat,
    description="the paper's libredfat: low-fat size classes + "
                "metadata-bearing redzones (needs a hardened binary)",
    capabilities=frozenset({"oob", "uaf", "double-free", "metadata"}),
    needs_hardened_binary=True,
))
register(RuntimeInfo(
    name="shadow",
    factory=_make_shadow,
    description="Memcheck/ASAN-style shadow map + inter-object redzones "
                "(the paper's DBI comparator)",
    capabilities=frozenset({"oob", "uaf", "probabilistic"}),
))
register(RuntimeInfo(
    name="s2malloc",
    factory=_make_s2malloc,
    description="S2Malloc: randomized in-slot placement + canaries, "
                "quarantined reuse (probabilistic OOB/UaF)",
    capabilities=frozenset({"oob", "uaf", "double-free", "probabilistic"}),
))
register(RuntimeInfo(
    name="camp",
    factory=_make_camp,
    description="CAMP-style cooperative bounds table: deterministic "
                "OOB/UaF/double-free against the object at the accessed "
                "address",
    capabilities=frozenset({"oob", "uaf", "double-free"}),
))

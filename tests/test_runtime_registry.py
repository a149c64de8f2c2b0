"""The runtime registry, spec grammar, and ``create_runtime``.

The registry is the single entry point every layer uses to pick a
runtime (API, CLI, farm, shootout), so its contract gets its own suite:
name resolution, the ``name:key=val,...`` spec grammar with option
coercion, the typed :class:`UnknownRuntimeError`, and the registry specs
:meth:`HardenResult.create_runtime` accepts.
"""

import pytest

import repro.api as api
from repro.cc import compile_source
from repro.bench.shootout import DEFAULT_BACKENDS
from repro.errors import ReproError, UnknownRuntimeError
from repro.faults.points import point_names
from repro.hunt.loop import DEFAULT_RUNTIMES
from repro.runtime import registry
from repro.runtime.backends.s2malloc import S2MallocRuntime
from repro.runtime.redfat import RedFatRuntime
from repro.runtime.registry import RuntimeSpec
from repro.runtime.shadow import ShadowRuntime

SOURCE = """
int main() {
    int *a = malloc(32);
    a[0] = arg(0);
    int v = a[0];
    free(a);
    print(v);
    return 0;
}
"""

ZOO = {"glibc", "redfat", "shadow", "s2malloc", "camp"}


# -- names, discovery -------------------------------------------------------


class TestRegistrySurface:
    def test_the_whole_zoo_is_registered(self):
        assert ZOO <= set(registry.names())

    def test_available_is_sorted_and_described(self):
        infos = registry.available()
        assert [info.name for info in infos] == sorted(i.name for i in infos)
        assert all(info.description for info in infos)

    def test_only_redfat_needs_the_hardened_binary(self):
        needy = {info.name for info in registry.available()
                 if info.needs_hardened_binary}
        assert needy == {"redfat"}

    def test_unknown_name_raises_typed_error(self):
        with pytest.raises(UnknownRuntimeError) as info:
            registry.resolve("banana")
        assert isinstance(info.value, ValueError)  # pre-registry contract
        assert isinstance(info.value, ReproError)
        assert info.value.runtime_name == "banana"
        assert "s2malloc" in str(info.value)  # says what *would* work

    @pytest.mark.parametrize("name", sorted(set(DEFAULT_RUNTIMES)
                                            | set(DEFAULT_BACKENDS)))
    def test_every_default_matrix_name_resolves(self, name):
        # The hunt's replay matrix and the shootout name backends by
        # string; a deleted backend must not linger in either default.
        assert registry.resolve(name).name == name

    def test_every_runtime_fault_point_names_a_backend(self):
        # ``runtime.<backend>.<what>`` points guard code inside one
        # backend; a deleted backend takes its points with it.
        registered = set(registry.names())
        backends = {name.split(".")[1] for name in point_names()
                    if name.startswith("runtime.")}
        assert backends <= registered


# -- the spec grammar --------------------------------------------------------


class TestSpecGrammar:
    def test_bare_name(self):
        spec = registry.parse_spec("redfat")
        assert spec == RuntimeSpec("redfat", {})

    def test_options_are_coerced(self):
        spec = registry.parse_spec("s2malloc:seed=7,randomize=true,tag=hot")
        assert spec.options == {"seed": 7, "randomize": True, "tag": "hot"}

    def test_whitespace_and_empty_items_tolerated(self):
        spec = registry.parse_spec("shadow: redzone = 32 ,, mode=log ")
        assert spec.name == "shadow"
        assert spec.options == {"redzone": 32, "mode": "log"}

    def test_malformed_option_raises(self):
        with pytest.raises(ValueError, match="key=value"):
            registry.parse_spec("s2malloc:seed")

    def test_spec_instance_passes_through(self):
        spec = RuntimeSpec("camp", {"seed": 3})
        assert registry.parse_spec(spec) is spec


# -- create ------------------------------------------------------------------


class TestCreate:
    def test_spec_options_override_plumbing_kwargs(self):
        runtime = registry.create("s2malloc:seed=9,mode=abort",
                                  mode="log", seed=1)
        assert runtime.seed == 9
        assert runtime.mode == "abort"

    def test_backend_specific_option(self):
        runtime = registry.create("shadow:redzone=32")
        assert isinstance(runtime, ShadowRuntime)
        assert runtime.redzone == 32

    def test_instance_passes_through(self):
        instance = ShadowRuntime(mode="log")
        assert registry.create(instance) is instance

    def test_rejected_option_is_a_value_error_naming_the_backend(self):
        with pytest.raises(ValueError, match="s2malloc"):
            registry.create("s2malloc:wibble=1")

    def test_unknown_name_propagates(self):
        with pytest.raises(UnknownRuntimeError):
            registry.create("banana:seed=1")


# -- HardenResult.create_runtime ---------------------------------------------


class TestPreloadShims:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(SOURCE)

    @pytest.fixture(scope="class")
    def hardened(self, program):
        return api.harden(program.binary.strip())

    def test_create_runtime_defaults_to_redfat(self, hardened):
        runtime = hardened.create_runtime(mode="log")
        assert isinstance(runtime, RedFatRuntime)

    def test_create_runtime_runtime_spec(self, hardened):
        runtime = hardened.create_runtime(mode="abort", runtime="s2malloc")
        assert isinstance(runtime, S2MallocRuntime)
        assert runtime.mode == "abort"
        assert runtime.site_resolver is not None


# -- registry.deploy: which binary a backend runs ----------------------------


class TestDeploy:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(SOURCE)

    def test_preload_backend_runs_the_unhardened_binary(self, program):
        def harden():
            raise AssertionError("a preload backend must not harden")

        binary, runtime = registry.deploy(
            "s2malloc:seed=7", program.binary, harden, mode="log", seed=1)
        assert binary is program.binary
        assert isinstance(runtime, S2MallocRuntime)
        assert runtime.seed == 7 and runtime.mode == "log"

    def test_redfat_runs_the_hardened_binary(self, program):
        hardened = api.harden(program.binary.strip())
        binary, runtime = registry.deploy(
            "redfat", program.binary, lambda: hardened, mode="abort", seed=1)
        assert binary is hardened.binary
        assert isinstance(runtime, RedFatRuntime)
        assert runtime.mode == "abort"

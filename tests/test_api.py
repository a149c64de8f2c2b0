"""The repro.api facade, the preset registry, and the stats protocol."""

import json

import pytest

import repro.api as api
from repro.cc import compile_source
from repro.core import AllowList, RedFat, RedFatOptions
from repro.core.options import PRESETS
from repro.errors import GuestMemoryError
from repro.runtime.redfat import RedFatRuntime
from repro.telemetry import Telemetry, validate_harden_report

SOURCE = """
int main() {
    int *a = malloc(32);
    for (int i = 0; i < 4; i = i + 1) a[i] = i + arg(0);
    int s = a[0] + a[3];
    free(a);
    print(s);
    return 0;
}
"""

OVERFLOW_SOURCE = """
int main() {
    char *p = malloc(24);
    p[arg(0)] = 1;
    print(p[0]);
    return 0;
}
"""


# -- target resolution -------------------------------------------------------


def test_load_accepts_source_path_binary_and_program(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    from_path = api.load(path)
    from_str = api.load(str(path))
    program = compile_source(SOURCE)
    assert api.load(program) is program
    wrapped = api.load(program.binary)
    assert wrapped.binary is program.binary
    assert from_path.binary.segment(".text").data == \
        from_str.binary.segment(".text").data


def test_load_binary_image_from_disk(tmp_path):
    program = compile_source(SOURCE)
    image = tmp_path / "prog.melf"
    program.binary.save(str(image))
    loaded = api.load(image)
    result = api.run(loaded, args=[5])
    assert result.output == program.run(args=[5]).output


# -- harden ------------------------------------------------------------------


def test_harden_catches_overflow_end_to_end():
    program = compile_source(OVERFLOW_SOURCE)
    hardened = api.harden(program.binary.strip(), options="fully")
    benign = program.run(args=[4], binary=hardened.binary,
                         runtime=hardened.create_runtime(mode="abort"))
    assert benign.status == 0
    with pytest.raises(GuestMemoryError):
        program.run(args=[100], binary=hardened.binary,
                    runtime=hardened.create_runtime(mode="abort"))


def test_harden_writes_output_and_metrics(tmp_path):
    source = tmp_path / "prog.c"
    source.write_text(SOURCE)
    out = tmp_path / "prog.hard.melf"
    tele = Telemetry(meta={"kind": "harden", "input": str(source)})
    result = api.harden(source, options="fully", telemetry=tele, output=out)
    assert out.exists()
    assert result.rewrite.patched
    document = json.loads(tele.to_json())
    assert validate_harden_report(document) == []
    # record_stats folded the HardenResult into gauges.
    assert document["gauges"]["harden.groups"] == result.groups


def test_harden_allowlist_override():
    program = compile_source(SOURCE)
    empty = AllowList([])
    result = api.harden(program.binary.strip(), options="fully",
                        allowlist=empty)
    assert result.options.allowlist is empty
    assert not result.protected_sites("lowfat+redzone")


# -- run ---------------------------------------------------------------------


def test_run_runtime_selection_and_errors():
    program = compile_source(SOURCE)
    out = api.run(program, args=[1], runtime="glibc")
    assert out.status == 0
    custom = RedFatRuntime(mode="log")
    again = api.run(program, args=[1], runtime=custom)
    assert again.runtime is custom
    with pytest.raises(ValueError):
        api.run(program, runtime="banana")


# -- profile -----------------------------------------------------------------


def test_profile_produces_allowlist(tmp_path):
    program = compile_source(SOURCE)
    out = tmp_path / "allow.lst"
    report = api.profile(program, args=[1], output=out)
    assert out.exists()
    assert len(report.allowlist) > 0
    loaded = AllowList.load(out)
    assert set(loaded) == set(report.allowlist)


# -- preset registry ---------------------------------------------------------


def test_preset_matches_explicit_construction():
    assert RedFatOptions.preset("unoptimized") == RedFatOptions(
        elim=False, batch=False, merge=False, specialize_registers=False,
        flow_elim=False, dominated_elim=False, global_liveness=False,
        interproc_elim=False,
    )
    assert RedFatOptions.preset("fully") == RedFatOptions()
    assert RedFatOptions.preset("+merge") == RedFatOptions()
    assert RedFatOptions.preset("-reads") == RedFatOptions(
        size_hardening=False, check_reads=False
    )
    allow = AllowList([1, 2])
    assert RedFatOptions.preset("+elim", allowlist=allow).allowlist is allow


def test_preset_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown preset"):
        RedFatOptions.preset("turbo")


def test_preset_names_cover_registry():
    assert set(RedFatOptions.preset_names()) == set(PRESETS)
    for name in RedFatOptions.preset_names():
        RedFatOptions.preset(name)  # every entry constructs


# -- stats protocol ----------------------------------------------------------


def test_as_dict_protocol_on_all_stats_surfaces():
    program = compile_source(SOURCE)
    result = RedFat(RedFatOptions()).instrument(program.binary.strip())
    stats = result.stats.as_dict()
    assert {"memory_operands", "candidates", "eliminated"} <= set(stats)
    rewrite = result.rewrite.as_dict()
    assert {"patched", "trampolines", "trampoline_bytes"} <= set(rewrite)
    top = result.as_dict()
    assert top["stats"] == stats
    assert top["rewrite"] == rewrite
    assert set(top["sites"]) == {"lowfat", "redzone", "unprotected"}
    json.dumps(top)  # the whole protocol is JSON-serialisable


def test_create_runtime_explicit_keywords():
    program = compile_source(SOURCE)
    result = RedFat(RedFatOptions()).instrument(program.binary.strip())
    tele = Telemetry()
    runtime = result.create_runtime(mode="log", randomize=True, seed=7,
                                    telemetry=tele)
    assert runtime.mode == "log"
    with pytest.raises(TypeError):
        result.create_runtime(bogus=True)

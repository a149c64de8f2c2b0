"""End-to-end tests for the ``redfat`` command-line front end."""

import pytest

from repro.cli import main

SOURCE = """
int main() {
    int *a = malloc(8 * 8);
    for (int i = 0; i < 8; i = i + 1) a[i] = i;
    int *q = a - 5;          // anti-idiom: profiled out
    int s = 0;
    for (int i = 5; i < 13; i = i + 1) s = s + q[i];
    a[arg(0)] = 7;           // attacker-controllable
    print(s);
    return 0;
}
"""


@pytest.fixture()
def workspace(tmp_path):
    source = tmp_path / "prog.c"
    source.write_text(SOURCE)
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(part) for part in argv])


class TestPipeline:
    def test_full_fig5_workflow(self, workspace, capsys):
        prog = workspace / "prog.melf"
        stripped = workspace / "prog.stripped"
        allow = workspace / "allow.lst"
        hard = workspace / "prog.hard"

        assert run_cli("compile", workspace / "prog.c", "-o", prog) == 0
        assert run_cli("strip", prog, "-o", stripped) == 0
        assert run_cli("profile", stripped, "-o", allow, "--args", "0") == 0
        assert allow.exists()
        assert run_cli(
            "harden", stripped, "-o", hard, "--allowlist", allow
        ) == 0
        # Benign run under the hardened binary: clean, correct output.
        assert run_cli("run", hard, "--args", "0", "--runtime", "redfat") == 0
        captured = capsys.readouterr()
        assert "28" in captured.out  # sum(0..7)

    def test_attack_blocked(self, workspace, capsys):
        prog = workspace / "prog.melf"
        hard = workspace / "prog.hard"
        run_cli("compile", workspace / "prog.c", "-o", prog)
        run_cli("harden", prog, "-o", hard)
        status = run_cli("run", hard, "--args", "600", "--runtime", "redfat",
                         "--mode", "abort")
        assert status == 139
        assert "MEMORY ERROR" in capsys.readouterr().err

    def test_attack_unprotected_is_silent(self, workspace):
        prog = workspace / "prog.melf"
        run_cli("compile", workspace / "prog.c", "-o", prog)
        # Unhardened + glibc: silent corruption, normal exit... though the
        # anti-idiom read is fine there too.
        assert run_cli("run", prog, "--args", "9", "--runtime", "glibc") == 0

    def test_harden_flags(self, workspace, capsys):
        prog = workspace / "prog.melf"
        hard = workspace / "prog.hard"
        run_cli("compile", workspace / "prog.c", "-o", prog)
        assert run_cli("harden", prog, "-o", hard,
                       "--no-reads", "--no-size") == 0
        out = capsys.readouterr().out
        assert "patches" in out

    def test_disasm(self, workspace, capsys):
        prog = workspace / "prog.melf"
        run_cli("compile", workspace / "prog.c", "-o", prog)
        assert run_cli("disasm", prog) == 0
        out = capsys.readouterr().out
        assert ".text" in out
        assert "rtcall" in out

    def test_pic_compile(self, workspace, capsys):
        prog = workspace / "prog.melf"
        assert run_cli("compile", workspace / "prog.c", "-o", prog, "--pic") == 0
        assert "pic" in capsys.readouterr().out

    def test_missing_file_error(self, workspace, capsys):
        assert run_cli("disasm", workspace / "nope.melf") == 1
        assert "redfat:" in capsys.readouterr().err

    def test_bad_image_error(self, workspace, capsys):
        bogus = workspace / "bogus.melf"
        bogus.write_bytes(b"garbage")
        assert run_cli("disasm", bogus) == 1


SECOND_SOURCE = """
int main() {
    int *a = malloc(48);
    for (int i = 0; i < 6; i = i + 1) a[i] = i;
    print(a[5]);
    free(a);
    return 0;
}
"""


class TestFarmCommand:
    @pytest.fixture()
    def batch(self, tmp_path):
        first = tmp_path / "one.c"
        second = tmp_path / "two.c"
        first.write_text(SOURCE)
        second.write_text(SECOND_SOURCE)
        return tmp_path, first, second

    def test_batch_hardens_every_input(self, batch, capsys):
        tmp_path, first, second = batch
        out_dir = tmp_path / "out"
        assert run_cli("farm", first, second,
                       "--output-dir", out_dir) == 0
        assert (out_dir / "one.hard.melf").exists()
        assert (out_dir / "two.hard.melf").exists()
        out = capsys.readouterr().out
        assert "farm: 2 hardened" in out

    def test_cache_dir_serves_second_invocation(self, batch, capsys):
        tmp_path, first, second = batch
        cache_dir = tmp_path / "cache"
        out_dir = tmp_path / "out"
        common = ("farm", first, second, "--cache-dir", cache_dir,
                  "--output-dir", out_dir)
        assert run_cli(*common) == 0
        capsys.readouterr()
        assert run_cli(*common) == 0
        out = capsys.readouterr().out
        assert "2 cache hits" in out
        assert "[cached]" in out

    def test_failed_job_reports_summary_and_nonzero_exit(self, batch,
                                                         capsys):
        tmp_path, first, second = batch
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")  # malformed: the job cannot load
        out_dir = tmp_path / "out"
        status = run_cli("farm", first, bad, "--output-dir", out_dir)
        assert status == 1
        captured = capsys.readouterr()
        assert "1 job(s) failed" in captured.err
        assert "bad" in captured.err
        # The healthy input still hardened; one sick job never sinks the batch.
        assert (out_dir / "one.hard.melf").exists()

    def test_metrics_export_validates(self, batch, capsys):
        import json

        from repro.telemetry.validate import validate_document

        tmp_path, first, second = batch
        metrics = tmp_path / "farm.json"
        assert run_cli("farm", first, second,
                       "--output-dir", tmp_path / "out",
                       "--metrics", metrics) == 0
        document = json.loads(metrics.read_text())
        assert validate_document(document) == []
        assert document["counters"]["farm.jobs"] == 2

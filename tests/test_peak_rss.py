import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "peak_rss.py"


def guard(limit_mb, *cmd, before=""):
    # ``before`` runs first in the guard's own process, as an earlier guard's child would
    code = f"{before}\nimport runpy, sys\nsys.argv = {[str(SCRIPT), 'child', str(limit_mb), '--', *cmd]!r}\n"
    code += f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


class TestPeakRss:
    def test_command_under_its_limit_passes(self):
        run = guard(200, sys.executable, "-c", "pass")
        assert run.returncode == 0 and run.stdout.startswith("child peak RSS ")

    def test_command_above_its_limit_fails(self):
        run = guard(100, sys.executable, "-c", "b = bytearray(128 << 20); b[::4096] = b'x' * (128 << 8)")
        assert run.returncode == 1 and "is above 100 MB" in run.stderr

    def test_failing_command_fails(self):
        run = guard(200, sys.executable, "-c", "raise SystemExit(3)")
        assert run.returncode == 1 and "exited with status 3" in run.stderr

    def test_reads_its_own_childs_peak_after_a_larger_child(self):
        # RUSAGE_CHILDREN would still read the earlier child's 128 MB
        big = "b = bytearray(128 << 20); b[::4096] = b'x' * (128 << 8)"
        run = guard(60, sys.executable, "-c", "pass",
                    before=f"import subprocess, sys; subprocess.run([sys.executable, '-c', {big!r}], check=True)")
        assert run.returncode == 0, run.stderr

"""Start-up guard: importing the CLI loads no module that only code
generation or annotations would need.  Each of them adds milliseconds to
every ``palrich`` command, and a command is mostly process start."""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site-packages .pth file may load them first and hide an import
    code = ("import palrich.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_decompose_imports_no_utf_32_codec_module():
    # encode calls the native byte order's decoder itself, so no command
    # looks the codec up in the registry and imports its encodings module
    code = ("import palrich.cli, sys; "
            "palrich.cli.main(['decompose', '--gen', 'fibonacci', '--len', '400', "
            "'--method', 'path', '--n', '1']); "
            "print([m for m in sys.modules if m.startswith('encodings.utf_32')], "
            "file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert '"method": "path"' in out.stdout
    assert out.stderr.strip() == "[]"

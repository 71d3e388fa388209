"""README's Library example runs as written, and every command line it shows
parses, so an API or CLI change that breaks them fails here rather than in a
reader's hands."""
import os
import re
import shlex
import subprocess
import sys

from localperiods import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", readme(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_parse():
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme(), re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("verify ")]
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.config_from_args(cli.PARSER.parse_args(argv)).command == argv[0]

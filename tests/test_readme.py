"""The README's library example and CLI block run as written."""

import re
import shlex
from pathlib import Path

from kaczmarz.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "passed=True" in out and "mode='per_step'" in out
    assert "refused: momentum constants infeasible" in out
    assert "is not below beta_upper" in out


def test_cli_block_runs(tmp_path, capsys):
    blocks = [block for block in re.findall(r"```sh\n(.*?)```", README.read_text(),
                                            flags=re.DOTALL)
              if block.startswith("kaczmarz ")]
    assert len(blocks) == 1
    commands = blocks[0].replace("\\\n", " ").replace("/tmp/", f"{tmp_path}/").splitlines()
    assert len(commands) == 5
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "kaczmarz"
        assert main(argv) == 0, command

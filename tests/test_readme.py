"""The README's examples: each fenced python block doctested on its own, and
each `$ spincg ...` line of its command-line block run through cli.main.

python -m doctest README.md reads the closing fence after an example as part
of its expected output, so the blocks are cut out of the file first.
"""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

from spincg import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report: list[str] = []
    failed = tried = 0
    for number, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, {}, f"README.md python block {number}", str(README), 0)
        result = runner.run(test, out=report.append)
        failed += result.failed
        tried += result.attempted
    assert (failed, tried) == (0, 11), "".join(report)


def test_readme_command_lines(capsys):
    (block,) = re.findall(r"^```sh\n(\$ spincg .*?)^```$", README.read_text(), re.M | re.S)
    # a command line, then the lines it prints up to the next blank line
    examples = re.findall(r"^\$ (.*)\n((?:(?!\$ ).+\n)*)", block, re.M)
    assert len(examples) == 7
    for command, expected in examples:
        program, *argv = shlex.split(command, comments=True)
        assert program == "spincg"
        assert cli.main(argv) == 0, command
        assert capsys.readouterr().out == expected, command

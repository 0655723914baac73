"""The README's examples run as written: the Library section's python block
does what its comments say, and every ``bluedots`` command in the CLI
section parses."""

import re
import shlex
from pathlib import Path

from bluedots import cli, relax_traced

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section_blocks(title: str, language: str) -> list[str]:
    """The ``language`` code blocks of the README section ``## title``."""
    section = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.S)


def test_library_block_runs_as_its_comments_say():
    (block,) = section_blocks("Library", "python")
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    layout, xs, jitter = scope["layout"], scope["xs"], scope["jitter"]
    # layout.x is bit-identical to xs
    assert layout.x.tobytes() == xs.tobytes()
    assert layout.iterations_run > 0
    # jitter: the same x and seed; y is where the relaxation started
    initial = relax_traced(scope["data"], scope["domain"], scope["config"])[1].initial
    assert jitter.x.tobytes() == initial.x.tobytes() and jitter.y.tobytes() == initial.y.tobytes()
    assert jitter.seed == layout.seed == initial.seed


def test_cli_commands_parse():
    (block,) = section_blocks("CLI", "sh")
    lines = [line for line in block.replace("\\\n", " ").splitlines() if not line.lstrip().startswith("#")]
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert len(commands) == 6 and all(command[0] == "bluedots" for command in commands)
    parser = cli.build_parser()
    for command in commands:
        args = parser.parse_args(command[1:])
        assert (ROOT / args.input).is_file()

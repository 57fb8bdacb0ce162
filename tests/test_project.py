"""The project's documents and metadata against the package: the README's
library example runs, each `chigenus` line of its CLI block exits as its
comment states, and `pyproject.toml` names the package's version."""

import pathlib
import re
import shlex

import chigenus
from chigenus.cli import main

ROOT = pathlib.Path(__file__).parent.parent


def section(path: pathlib.Path, heading: str) -> list[str]:
    """The lines under a heading (a `## ` line, or a `[table]` header) up to
    the next heading of the same kind."""
    lines = path.read_text().splitlines()
    start = lines.index(heading) + 1
    # "## " and not "#": a shell comment in a code block is no heading
    kind = heading.split()[0] + " " if heading.startswith("#") else heading[0]
    end = next((i for i in range(start, len(lines)) if lines[i].startswith(kind)), len(lines))
    return lines[start:end]


def code_block(heading: str, language: str) -> list[str]:
    """The lines of the first `language` code block under a README heading."""
    lines = section(ROOT / "README.md", heading)
    start = lines.index("```" + language) + 1
    return lines[start : lines.index("```", start)]


def test_the_readme_library_example_runs():
    code = "\n".join(code_block("## Library example", "python"))
    exec(compile(code, "README.md: Library example", "exec"), {"__name__": "readme_example"})


def test_the_readme_cli_lines_exit_as_stated(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the corpus path is relative to the repository
    commands = [line for line in code_block("## CLI", "sh") if line.startswith("chigenus ")]
    assert commands
    exits, stated = [], []
    for line in commands:
        exits.append((line, main(shlex.split(line, comments=True)[1:])))
        capsys.readouterr()
        code = re.search(r"#\s*exit (\d)", line)
        stated.append((line, int(code.group(1)) if code else 0))
    assert exits == stated


def test_pyproject_names_the_package_version():
    # read by hand: tomllib is new in Python 3.11, and the project supports 3.10
    versions = [
        match.group(1)
        for line in section(ROOT / "pyproject.toml", "[project]")
        if (match := re.fullmatch(r'version\s*=\s*"([^"]*)"\s*', line))
    ]
    assert versions == [chigenus.__version__]

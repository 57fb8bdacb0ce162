"""The project's documents and metadata against the package: the README's
library example runs, and `pyproject.toml` names the package's version."""

import pathlib
import re

import chigenus

ROOT = pathlib.Path(__file__).parent.parent


def section(path: pathlib.Path, heading: str) -> list[str]:
    """The lines under a heading (a `## ` line, or a `[table]` header) up to
    the next heading of the same kind."""
    lines = path.read_text().splitlines()
    start = lines.index(heading) + 1
    kind = heading[0]
    end = next((i for i in range(start, len(lines)) if lines[i].startswith(kind)), len(lines))
    return lines[start:end]


def test_the_readme_library_example_runs():
    lines = section(ROOT / "README.md", "## Library example")
    start = lines.index("```python") + 1
    code = "\n".join(lines[start : lines.index("```", start)])
    exec(compile(code, "README.md: Library example", "exec"), {"__name__": "readme_example"})


def test_pyproject_names_the_package_version():
    # read by hand: tomllib is new in Python 3.11, and the project supports 3.10
    versions = [
        match.group(1)
        for line in section(ROOT / "pyproject.toml", "[project]")
        if (match := re.fullmatch(r'version\s*=\s*"([^"]*)"\s*', line))
    ]
    assert versions == [chigenus.__version__]

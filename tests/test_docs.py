"""The README's list of expected failures matches the xfail markers in the tests, and its
CLI key table the config keys each command reads."""

import ast
import re
from pathlib import Path

from quatnev.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]


def _readme_tests_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Tests\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def _is_xfail(decorator: ast.expr) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "xfail"
               for node in ast.walk(decorator))


def _xfail_tests() -> set[str]:
    names = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
                    and any(_is_xfail(d) for d in node.decorator_list)):
                names.add(node.name)
    return names


def test_readme_names_exactly_the_xfail_tests():
    documented = set(re.findall(r"`(test_\w+)`", _readme_tests_section()))
    assert documented == _xfail_tests()


def _readme_cli_key_table() -> dict[str, set[str]]:
    """Command (or 'every command') → the backquoted keys of its README table row."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## CLI\n")
    section = text[start:text.index("\n## ", start + 1)]
    return {
        row.group(1).strip("`"): set(re.findall(r"`(\w+)`", row.group(2)))
        for row in re.finditer(r"^\| (`[a-z-]+`|every command) \| (.*) \|$", section, re.M)
    }


def test_readme_key_table_names_exactly_the_keys_each_command_reads():
    table = _readme_cli_key_table()
    common = table.pop("every command")
    assert set(table) == set(_COMMANDS)
    for command, keys in table.items():
        assert keys | common == _COMMANDS[command].keys, command

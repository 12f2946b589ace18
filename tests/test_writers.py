"""Every text artifact is written by util: no other package module encodes JSON
with its own options, builds a JSON encoder, or opens a file for text writing."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "citebench"
# the one json.dumps outside util: cli.main's error object on stderr, no file
STDERR_LINE = ("cli.py", "main")
WRITE_CHARS, MODE_CHARS = set("wxa+"), set("rwxabt+")


def _is_text_write_mode(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and set(node.value) <= MODE_CHARS and bool(set(node.value) & WRITE_CHARS)
            and "b" not in node.value)


class _Writes(ast.NodeVisitor):
    """The writes of one module that go past util, as (line, what) pairs."""

    def __init__(self, module: str):
        self.module, self.function, self.found = module, None, []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Name(self, node):
        if node.id == "JSONEncoder":
            self.found.append((node.lineno, "a JSON encoder"))

    def visit_Attribute(self, node):
        if node.attr == "JSONEncoder":
            self.found.append((node.lineno, "a JSON encoder"))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        of_json = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                   and func.value.id == "json")
        if of_json and name == "dump":
            self.found.append((node.lineno, "json.dump"))
        elif of_json and name == "dumps" and (self.module, self.function) != STDERR_LINE:
            self.found.append((node.lineno, "json.dumps"))
        elif name == "write_text" and isinstance(func, ast.Attribute):
            self.found.append((node.lineno, ".write_text"))
        elif name == "open" and any(map(_is_text_write_mode,
                                        [*node.args, *(k.value for k in node.keywords)])):
            self.found.append((node.lineno, "open for text writing"))
        self.generic_visit(node)


def writes_past_util(source: str, module: str) -> list[tuple[int, str]]:
    scan = _Writes(module)
    scan.visit(ast.parse(source))
    return scan.found


def test_the_scan_finds_each_kind_of_write():
    source = ("import json\nfrom pathlib import Path\n\n"
              "def save(p, obj):\n"
              "    json.dump(obj, open(p, 'w'))\n"
              "    Path(p).write_text(json.dumps(obj, indent=1))\n"
              "    with Path(p).open(mode='a', encoding='utf-8') as fh:\n"
              "        fh.write(json.JSONEncoder(sort_keys=True).encode(obj))\n"
              "    open(p, 'rb'), open(p), open(p, 'wb'), Path(p).open('r+b')\n"
              "    return json.loads(p), write_text(p, [])\n\n"
              "def main():\n    print(json.dumps({}))\n")
    assert writes_past_util(source, "cli.py") == [
        (5, "json.dump"), (5, "open for text writing"), (6, ".write_text"), (6, "json.dumps"),
        (7, "open for text writing"), (8, "a JSON encoder")]
    assert writes_past_util(source, "pools.py")[-1] == (13, "json.dumps")


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "util.py"}),
                         ids=lambda path: path.name)
def test_only_util_writes_text(path):
    assert writes_past_util(path.read_text(encoding="utf-8"), path.name) == []

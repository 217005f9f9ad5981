"""README's examples run as written: the two "Library in brief" blocks give
their commented results, and the `$ levelalg` examples print what README
shows."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from levelalg import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def _commented_result(comment: str):
    """The literal a comment opens with, up to a colon ("# True: ..."), or
    None when it opens with prose."""
    head = comment.lstrip("#").strip().split(":")[0]
    try:
        return ast.literal_eval(head)
    except (ValueError, SyntaxError):
        return None


def test_library_blocks_give_their_commented_results():
    blocks = _blocks(_section("Library in brief"), "python")
    assert len(blocks) == 2
    namespace: dict = {}
    checked = []
    # the second block reuses the first's imports
    for block in blocks:
        comments = {
            tok.start[0]: tok.string
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT
        }
        for stmt in ast.parse(block).body:
            want = _commented_result(comments.get(stmt.end_lineno, ""))
            code = ast.get_source_segment(block, stmt)
            if isinstance(stmt, ast.Expr):
                got = eval(code, namespace)
            else:
                exec(code, namespace)
                if want is None:
                    continue
                [target] = stmt.targets
                got = namespace[target.id]
            if want is not None:
                assert got == want, code
                checked.append(want)
    assert checked == [(1, 8, 8, 8, 3), (1, 3, 4, 2), True]


def test_command_line_examples_print_what_readme_shows(capsys):
    examples = []
    for block in _blocks(_section("Command line"), ""):
        lines = block.splitlines()
        for k, line in enumerate(lines):
            if line.startswith("$ levelalg "):
                output = []
                for out in lines[k + 1 :]:
                    if not out or out.startswith("$ "):
                        break
                    output.append(out)
                examples.append((shlex.split(line[2:])[1:], output))
    assert len(examples) == 2
    for argv, output in examples:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == output, argv

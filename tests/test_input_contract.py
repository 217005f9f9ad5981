"""The input contract of the two text formats, fuzzed.

Whatever lines a module file or a manifest holds, `levelalg hvector` exits
0 or 2 and `levelalg verify` 0, 1 or 2, no exception escapes `cli.main`,
every exit 2 names its line, and every exit 1 of `verify` says why: a
`[VIOLATED]` report or a failed identity on stdout, or a degenerate
sample on stderr. The lines are drawn from fixed lists of
valid and malformed headers, labels, keys, values and family tokens, all
small: no family parameter beyond what the lists hold, and at most one
trial per type. Most such manifests exit 2, so a second test builds
manifests of whole valid lines from small parameter ranges, which reach
the bounds and identity checks and exit 0 or 1, never 2.
"""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelalg import cli

LONG_LABEL = "F" + "1" * 5000  # past int()'s default 4300-digit limit

MODULE_LINES = (
    "vars: 2", "vars: 3", "vars: 0", "vars: x", "vars 2",
    "degree: 2", "degree: 3", "degree: 0", "degree: 10^2",
    "prime: 97", "prime: 2", "prime: 91", "prime: rational", "prime: x",
    "F1: y1^2", "F1: y1^3 + y2^3", "F2: y1*y2", "F2: y2^3", "F3: y1*y2^2",
    "F2: 2*y1^2", "F1: 2-y1^2", "F1: y1^2 - y1^2", "F1: y3^2", "F1:",
    "F0: y1^2", "F: y1^2", "F²: y1^2", LONG_LABEL + ": y1^2", "f1: y1^2",
    "color: blue", ": y1", "nonsense", "# a comment", "",
)

# a valid header block or none, then up to six drawn lines
MODULE_FILES = st.builds(
    lambda head, body: [*head, *body],
    st.sampled_from(((), ("vars: 2", "degree: 2"), ("vars: 2", "degree: 3", "prime: 97"))),
    st.lists(st.sampled_from(MODULE_LINES), max_size=6),
)

# each family bare, and with every parameter it needs
FAMILY_TOKENS = (
    "sharp", "monomial", "random-dense", "random-sparse",
    "truncated-gorenstein-conic", "weird", "#",
    "sharp t=2 e=2", "sharp t=3 p=1 e=3", "monomial r=2 e=2 t=2",
    "random-dense r=2 e=2 t=2", "random-sparse r=3 e=2 t=2",
    "truncated-gorenstein-conic s=3 e=2",
)

KEY_TOKENS = (
    "t=2", "t=3", "t=0", "t=x", "t=", "p=1", "e=2", "e=3", "e=-1", "r=2", "r=3",
    "s=3", "density=0.5", "density=thin", "c=1", "c=1,2", "c=2,1", "c=1,1",
    "c=3", "c=x", "trials=1", "trials=0", "seed=5", "seed=x",
    "seed=" + "1" * 5000, "label=a", "identities=off", "identities=maybe",
    "bogus=1", "oops", "=1", "t²=2",
)

# a family token and up to three key tokens, then trials=1: a trials
# token drawn before it is read first, and trials=1 again is a repeated key
MANIFEST_LINES = st.builds(
    lambda family, keys: " ".join([family, *keys, "trials=1"]),
    st.sampled_from(FAMILY_TOKENS),
    st.lists(st.sampled_from(KEY_TOKENS), max_size=3),
)

# whole valid lines, each family's parameters from small ranges, and one
# trial per type: such a manifest reads in full, so it never exits 2
VALID_LINES = st.one_of(
    st.builds("sharp t={} e={} trials=1".format, st.integers(2, 3), st.integers(2, 3)),
    st.builds(
        "{} r={} e={} t={} trials=1".format,
        st.sampled_from(("monomial", "random-dense")),
        st.integers(2, 3), st.integers(2, 3), st.integers(2, 3),
    ),
    st.builds(
        "truncated-gorenstein-conic s={} e={} trials=1".format,
        st.sampled_from((3, 4, 5)), st.sampled_from((3, 4)),
    ),
)

# a report line of a violated bound, or of a failed identity check
FAILED_CHECK = re.compile(
    r"\[VIOLATED\]$|^\S+ u=\d+: identity \S+ FAILED \(lhs -?\d+, rhs -?\d+\)$", re.M
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def _run(command: str, lines: list[str]) -> tuple[int, str, str]:
    """`levelalg <command>` on a file of `lines`: its exit code, stdout and
    stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, str(path)])
    return code, out.getvalue(), err.getvalue()


def _check_exit(command: str, code: int, out: str, err: str, allowed) -> None:
    assert code in allowed, err
    if code == 2:
        assert re.match(rf"levelalg {command}: line \d+: ", err), err
    if code == 1:
        assert FAILED_CHECK.search(out) or re.match(
            rf"levelalg {command}: no independent \d+-of-\d+ combination ", err
        ), (out, err)


@FUZZ
@given(MODULE_FILES)
# generator labels that are not decimal digits, or that are past the
# digit limit: both once escaped as a bare ValueError with exit 3
@example(["vars: 2", "degree: 2", "F²: y1^2"])
@example(["vars: 2", "degree: 2", LONG_LABEL + ": y1^2"])
@example(["vars: 2", "degree: 3", "prime: 97", "F1: y1^3 + y2^3", "F2: y1*y2^2"])
def test_module_file_input_exits_zero_or_names_its_line(lines):
    code, out, err = _run("hvector", lines)
    _check_exit("hvector", code, out, err, (0, 2))


@FUZZ
@given(st.lists(MANIFEST_LINES | st.sampled_from(("", "# a comment")), max_size=6))
@example(["sharp t=2 e=2 c=1 trials=1", "sharp t=2 e=2 t²=1"])
@example(["# a comment", "sharp t=3 p=1 e=3 c=1,2 trials=1", "monomial r=2 e=2 t=2 trials=1"])
# a conic whose type-count identity fails at u=3: exit 1, said on stdout
@example(["truncated-gorenstein-conic s=5 e=4 c=1 trials=1"])
def test_manifest_input_exits_zero_one_or_names_its_line(lines):
    code, out, err = _run("verify", lines)
    _check_exit("verify", code, out, err, (0, 1, 2))


@FUZZ
@given(st.lists(VALID_LINES, min_size=1, max_size=3))
def test_valid_manifest_exits_zero_or_one(lines):
    code, out, err = _run("verify", lines)
    _check_exit("verify", code, out, err, (0, 1))

"""Command line behavior: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from levelalg import cli, modules
from levelalg.families import sharp_family
from levelalg.fields import FieldSpec
from levelalg.modules import generic_quotient_trials, module_to_text, parse_module_file

DATA = Path(__file__).resolve().parent / "data"

MODULE_TEXT = """\
vars: 4
degree: 3
F1: y1^2*y2
F2: y1^2*y3
F3: y1^2*y4
"""

MANIFEST_TEXT = """\
sharp t=3 p=1 e=3 c=1,2 trials=2 seed=3
monomial r=3 e=3 t=2 c=1 trials=2 seed=4
"""


@pytest.fixture
def module_file(tmp_path):
    f = tmp_path / "blocks.mod"
    f.write_text(MODULE_TEXT)
    return str(f)


@pytest.fixture
def manifest_file(tmp_path):
    f = tmp_path / "runs.txt"
    f.write_text(MANIFEST_TEXT)
    return str(f)


# ----------------------------------------------------------------- hvector


def test_hvector_plain(module_file, capsys):
    assert cli.main(["hvector", module_file]) == 0
    assert capsys.readouterr().out == "1 4 4 3\n"


def test_hvector_json(module_file, capsys):
    assert cli.main(["hvector", module_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"h": [1, 4, 4, 3]}


def test_hvector_rational(module_file, capsys):
    assert cli.main(["hvector", module_file, "--rational"]) == 0
    assert capsys.readouterr().out == "1 4 4 3\n"


def test_hvector_missing_file(tmp_path, capsys):
    assert cli.main(["hvector", str(tmp_path / "nope.mod")]) == 2
    assert "hvector" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hvector", "verify"])
def test_unreadable_input_exits_two_naming_the_path(tmp_path, capsys, command):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    for path in (tmp_path, binary):
        assert cli.main([command, str(path)]) == 2
        assert str(path) in capsys.readouterr().err


def test_hvector_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.mod"
    f.write_text("vars: 2\ndegree: 3\nF1: y1^2\n")
    assert cli.main(["hvector", str(f)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_hvector_dependent_generators_name_their_line(tmp_path, capsys):
    f = tmp_path / "dependent.mod"
    f.write_text("vars: 2\ndegree: 3\n# a comment\nF1: y1^3\nF2: 2*y1^3\n")
    assert cli.main(["hvector", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 5: 2 generators span a smaller space" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("vars: 2\nvars: 3\ndegree: 2\nF1: y3^2\n", 2),
        ("vars: 3\ndegree: 2\n\ndegree: 3\nF1: y3^2\n", 4),
        ("prime: 97\nvars: 3\ndegree: 2\nprime: rational\nF1: y3^2\n", 4),
    ],
    ids=["vars", "degree", "prime"],
)
def test_hvector_repeated_header_exits_two(tmp_path, capsys, text, line):
    # the second header would otherwise silently override the first
    f = tmp_path / "twice.mod"
    f.write_text(text)
    assert cli.main(["hvector", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"line {line}: repeated header" in err


@pytest.mark.parametrize(
    "label", ["F\u00b2", "F" + "1" * 5000], ids=["superscript", "past-digit-limit"]
)
def test_hvector_label_that_int_refuses_exits_two_on_its_line(tmp_path, capsys, label):
    # '²' passes str.isdigit but not int(); 5,000 digits pass both tests
    # but exceed int()'s default digit limit
    f = tmp_path / "label.mod"
    f.write_text(f"vars: 2\ndegree: 2\n{label}: y1^2\n", encoding="utf-8")
    assert cli.main(["hvector", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("levelalg hvector: line 3: ")


@pytest.mark.parametrize(
    "line, message",
    [
        # a coefficient is joined to its monomial by '*', never by a sign
        ("F1: 2-y1^2", "expected '*' after a coefficient (at position 1)"),
        # past Python's limit for integer strings: an input error, not a traceback
        (f"F1: {'7' * 5000}*y1^2", "integer literal of 5000 digits, more than the"),
    ],
    ids=["coefficient-then-sign", "long-literal"],
)
def test_hvector_malformed_expression_exits_two_naming_its_line(
    tmp_path, capsys, line, message
):
    f = tmp_path / "bad.mod"
    f.write_text(f"vars: 2\ndegree: 2\n{line}\nF2: y2^2\n")
    assert cli.main(["hvector", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"levelalg hvector: line 3: {message}")


def test_hvector_modulus_past_the_certified_bound_exits_two(tmp_path, capsys):
    # 399165290221 * 798330580441: a strong pseudoprime to every base up to 37
    f = tmp_path / "psi12.mod"
    f.write_text("vars: 2\ndegree: 2\nprime: 318665857834031151167461\nF1: y1^2\n")
    assert cli.main(["hvector", str(f)]) == 2
    assert "line 3: modulus 318665857834031151167461 is not a prime" in (
        capsys.readouterr().err
    )


def test_hvector_many_variables(tmp_path, capsys):
    f = tmp_path / "wide.mod"
    f.write_text("vars: 1200\ndegree: 1\nF1: y1\n")
    assert cli.main(["hvector", str(f)]) == 0
    assert capsys.readouterr().out == "1 1\n"


def test_hvector_space_over_the_bound_exits_two_before_any_table(tmp_path, capsys):
    # C(1202, 3), about 2.9e8 monomials: refused from the header alone
    f = tmp_path / "huge.mod"
    f.write_text("# wide\nvars: 1200\ndegree: 3\nF1: y1^3\n")
    tracemalloc.start()
    try:
        assert cli.main(["hvector", str(f)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7
    err = capsys.readouterr().err
    assert "line 2" in err and "288720400 monomials" in err


def test_hvector_degree_over_the_bound_exits_two_before_any_table(tmp_path, capsys):
    # one monomial in one variable, but 10^8 + 1 degrees: refused from the
    # header alone, where an h-vector or position table would take ~800 MB
    f = tmp_path / "degree.mod"
    f.write_text("vars: 1\ndegree: 100000000\nF1: y1^100000000\n")
    tracemalloc.start()
    try:
        assert cli.main(["hvector", str(f)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7
    err = capsys.readouterr().err
    assert "line 1: degree 100000000 is more than the 999999" in err


def test_hvector_round_trips_serializer(tmp_path, capsys):
    m = sharp_family(2, 2, 4, FieldSpec.modular())
    f = tmp_path / "sharp.mod"
    f.write_text(module_to_text(m))
    assert cli.main(["hvector", str(f)]) == 0
    assert capsys.readouterr().out == "1 6 6 6 2\n"


# ---------------------------------------------------------------- quotient


def test_quotient_plain(module_file, capsys):
    rc = cli.main(["quotient", module_file, "--type", "1", "--trials", "3",
                   "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 2 2 1"
    assert out[1] == "trials: 3  agreement: 3/3"


def test_quotient_json(module_file, capsys):
    rc = cli.main(["quotient", module_file, "--type", "1", "--trials", "2",
                   "--seed", "2", "--json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["h"] == [1, 2, 2, 1]
    assert d["perTrial"] == [[1, 2, 2, 1], [1, 2, 2, 1]]
    assert d["agreement"] is True
    assert d["trials"] == 2
    assert d["seed"] == 2


README_MODULE_TEXT = """\
# any comment on its own line
vars: 4
degree: 3
prime: 97

F1: y1^2*y2
F2: y1^2*y3 - 2*y2^3
F3: y1^2*y4
"""


@pytest.mark.parametrize("rational", [False, True], ids=["gf97", "q"])
def test_quotient_json_reports_the_quotient_trials(tmp_path, capsys, rational):
    # README's module file: the entrywise maximum and the trials are those
    # of generic_quotient_trials, at every type and for any seed
    f = tmp_path / "module.txt"
    f.write_text(README_MODULE_TEXT)
    field = FieldSpec.rational() if rational else None
    m = parse_module_file(README_MODULE_TEXT, field_override=field)
    for c, trials, seed in ((1, 5, 0), (2, 5, 0), (2, 3, 7)):
        argv = ["quotient", str(f), "--type", str(c), "--trials", str(trials),
                "--seed", str(seed), "--json"] + (["--rational"] if rational else [])
        assert cli.main(argv) == 0
        d = json.loads(capsys.readouterr().out)
        per_trial = [list(s.h) for s in generic_quotient_trials(m, c, trials, seed)]
        assert d["perTrial"] == per_trial
        assert d["h"] == [max(col) for col in zip(*per_trial)]
        assert d["agreement"] is all(h == per_trial[0] for h in per_trial)
        assert (d["trials"], d["seed"]) == (trials, seed)


def test_quotient_deterministic(module_file, capsys):
    cli.main(["quotient", module_file, "--type", "1", "--seed", "9", "--json"])
    first = capsys.readouterr().out
    cli.main(["quotient", module_file, "--type", "1", "--seed", "9", "--json"])
    assert capsys.readouterr().out == first


def test_quotient_type_out_of_range(module_file, capsys):
    assert cli.main(["quotient", module_file, "--type", "3"]) == 3
    assert "out of range 1..2" in capsys.readouterr().err
    assert cli.main(["quotient", module_file, "--type", "0"]) == 3


def test_quotient_bad_trials(module_file, capsys):
    assert cli.main(["quotient", module_file, "--type", "1",
                     "--trials", "0"]) == 3
    assert "positive" in capsys.readouterr().err
    # refused before any seed is derived: a huge count once hung
    for trials in ("1001", "99999999999999999999999"):
        assert cli.main(["quotient", module_file, "--type", "1", "--trials", trials]) == 3
        assert "trials must be at most 1000" in capsys.readouterr().err


# ------------------------------------------------------------------- bound


def test_bound_direct(capsys):
    rc = cli.main(["bound", "--h", "1,3,5,7,7,5,3", "--t", "3", "--c", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "direct: 1 3 4 6 5 4 2\n"


def test_bound_tightened(capsys):
    rc = cli.main(["bound", "--h", "1,3,5,7,7,5,3", "--t", "3", "--c", "2",
                   "--tighten"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "direct: 1 3 4 6 5 4 2",
        "tightened: 1 3 5 6 6 4 2",
    ]


def test_bound_tighten_infeasible_is_reported_not_fatal(capsys):
    # dropping the type by more than one step cannot be tightened directly
    rc = cli.main(["bound", "--h", "1,3,5,7,7,5,3", "--t", "3", "--c", "1",
                   "--tighten"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "direct: 1 2 3 4 3 2 1"
    assert out[1].startswith("tightened: infeasible (")
    assert "single type drops" in out[1]


def test_bound_chained(capsys):
    rc = cli.main(["bound", "--h", "1,3,5,7,7,5,3", "--t", "3", "--c", "1",
                   "--tighten", "--chain", "3,2,1"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "chained: 1 3 4 4 4 3 1"


def test_bound_json(capsys):
    rc = cli.main(["bound", "--h", "1,3,5,7,7,5,3", "--t", "3", "--c", "2",
                   "--tighten", "--json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d == {
        "direct": [1, 3, 4, 6, 5, 4, 2],
        "tightened": [1, 3, 5, 6, 6, 4, 2],
    }


def test_bound_bad_inputs(capsys):
    assert cli.main(["bound", "--h", "1,x,3", "--t", "2", "--c", "1"]) == 3
    assert "malformed --h" in capsys.readouterr().err
    assert cli.main(["bound", "--h", "1,3,3", "--t", "3", "--c", "3"]) == 3
    assert cli.main(["bound", "--h", "1,3,3", "--t", "3", "--c", "1",
                     "--chain", "3,2,x"]) == 3
    capsys.readouterr()
    # an empty --chain is malformed, as an empty --h is, not absent
    for flag in ("--h", "--chain"):
        argv = ["bound", "--h", "1,3,3", "--t", "3", "--c", "1", flag, ""]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"malformed {flag}: ''" in err


# ------------------------------------------------------------------ verify


def test_verify_text_format(manifest_file, capsys):
    rc = cli.main(["verify", manifest_file, "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "sharp-t3-p1-e3 c=1: bound 1 2 2 1 | empirical 1 2 2 1 [ok]"
    )
    assert len(out) == 4  # three reports plus the summary line
    assert out[-1].startswith("instances=2 satisfied=3 violated=0")


def test_verify_out_prints_the_text_reports_summary_line(manifest_file, tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert cli.main(["verify", manifest_file, "--seed", "1", "--out", str(report)]) == 0
    last = report.read_text(encoding="utf-8").splitlines()[-1]
    assert last.startswith("instances=2 satisfied=3 violated=0 tight=")
    assert capsys.readouterr().out == f"wrote {report}\n{last}\n"


def test_verify_json_format(manifest_file, capsys):
    rc = cli.main(["verify", manifest_file, "--format", "json", "--seed", "1"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["summary"]["instances"] == 2
    assert d["summary"]["violated"] == 0
    assert len(d["reports"]) == 3
    assert d["reports"][0]["label"] == "sharp-t3-p1-e3"
    assert d["reports"][0]["tightDegrees"] == [0, 1, 2, 3]


def test_verify_csv_format_and_determinism(manifest_file, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    rc = cli.main(["verify", manifest_file, "--format", "csv",
                   "--out", str(out1), "--seed", "6"])
    assert rc == 0
    msg = capsys.readouterr().out.splitlines()
    assert msg[0] == f"wrote {out1}"
    assert msg[1].startswith("instances=2")
    cli.main(["verify", manifest_file, "--format", "csv",
              "--out", str(out2), "--seed", "6"])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "label,h,c,bound,empirical,satisfied,tightDegrees,trials,seed,prime"


def test_verify_json_runs_identical_modulo_wall_time(manifest_file, capsys):
    cli.main(["verify", manifest_file, "--format", "json", "--seed", "2"])
    a = json.loads(capsys.readouterr().out)
    cli.main(["verify", manifest_file, "--format", "json", "--seed", "2"])
    b = json.loads(capsys.readouterr().out)
    a["summary"].pop("wallTime")
    b["summary"].pop("wallTime")
    assert a == b


def test_verify_rational(manifest_file, capsys):
    rc = cli.main(["verify", manifest_file, "--rational", "--format", "json",
                   "--seed", "1"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["summary"]["violated"] == 0
    assert d["reports"][0]["prime"] is None


def test_verify_walks_a_wide_sharp_line_in_pairs_and_triples(monkeypatch, capsys):
    # t = 12, identities on: in each of the 2 inner degrees the walk meets
    # the C(12,2) = 66 pairs, then the C(12,3) = 220 triples, 286 of the
    # 4,083 subsets with a nonzero parent, as every pair keeps its line in
    # each of its triples
    calls = []
    meets = modules._meets
    monkeypatch.setattr(
        modules, "_meets", lambda pairs, f: calls.append(len(pairs)) or meets(pairs, f)
    )
    rc = cli.main(["verify", str(DATA / "sharp-wide.txt"), "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert (summary["identityChecksPassed"], summary["identityChecksFailed"]) == (6, 0)
    assert calls == [2 * 66, 2 * 220]


# the known type-count failures, one record per failed check, the same in
# both fields; CI pins them through the installed command as well
KNOWN_IDENTITY_FAILURES = [
    "conic-s5-e4 u=3: identity type-count FAILED (lhs 3, rhs 4)",
    "conic-s7-e3 u=2: identity type-count FAILED (lhs 3, rhs 4)",
    "random-r3-e3-t3-d1-s5 u=2: identity type-count FAILED (lhs 0, rhs 3)",
    "monomial-r3-e4-t3-s7438520176602755083 u=2: identity type-count FAILED (lhs 4, rhs 5)",
    "monomial-r3-e4-t3-s7438520176602755083 u=3: identity type-count FAILED (lhs 4, rhs 5)",
    "monomial-r3-e4-t3-s1373947566745113384 u=3: identity type-count FAILED (lhs 0, rhs 3)",
]


@pytest.mark.parametrize("flags", [[], ["--rational"]], ids=["gfp", "q"])
def test_verify_exits_one_with_the_known_identity_failures(flags, capsys):
    rc = cli.main(["verify", str(DATA / "identity-failures.txt"), *flags])
    assert rc == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if " FAILED " in line] == KNOWN_IDENTITY_FAILURES


def test_verify_bad_manifest(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("weird t=2\n")
    assert cli.main(["verify", str(f)]) == 2
    assert "unknown family" in capsys.readouterr().err
    assert cli.main(["verify", str(tmp_path / "ghost.txt")]) == 2


@pytest.mark.parametrize(
    "line",
    [
        "sharp t=1 p=1 e=3",
        "random-dense r=2 e=1 t=5",
        "random-sparse r=3 e=3 t=2 density=2",
        # spaces of about 2.9e8 monomials, over the bound
        "random-dense r=1200 e=3 t=2",
        "sharp t=5 p=200 e=3",
        # 400,000 variables: refused before any generator is built
        "sharp t=3 p=100000 e=3",
        "random-dense r=0 e=3 t=2",
        "monomial r=0 e=3 t=1",
        # more points than the range they are drawn from
        "truncated-gorenstein-conic s=10001 e=3",
        # every draw of the family is empty: degenerate, still an input error
        "random-sparse r=3 e=3 t=2 density=1e-9",
    ],
)
def test_verify_bad_family_parameters_exit_two(tmp_path, capsys, line):
    f = tmp_path / "bad.txt"
    f.write_text(line + "\n")
    assert cli.main(["verify", str(f)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_verify_unknown_key_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("sharp t=3 e=3 bogus=4 c=1\n")
    assert cli.main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "bogus" in err


def test_verify_trials_past_the_cap_exit_two_before_any_instance_runs(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("sharp t=3 p=1 e=3 c=1\nsharp t=3 p=1 e=3 trials=1001\n")
    assert cli.main(["verify", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 2: trials must be at most 1000, got 1001" in err


def test_verify_repeated_key_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("sharp t=3 p=1 e=3 c=1\nsharp t=2 t=3 p=1 e=3 c=2\n")
    assert cli.main(["verify", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 2: repeated key 't'" in err


def test_verify_repeated_type_in_c_list_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("sharp t=2 p=1 e=3 c=1,1\n")
    assert cli.main(["verify", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 1: repeated type in c list" in err


def test_verify_out_is_utf8_under_an_ascii_locale(tmp_path):
    # the manifest is read as UTF-8 whatever the locale, and so the report
    # file is written
    f = tmp_path / "accent.txt"
    f.write_text("sharp t=2 p=1 e=3 label=caf\u00e9\n", encoding="utf-8")
    out = tmp_path / "o.txt"
    env = os.environ | {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run(
        [sys.executable, "-m", "levelalg.cli", "verify", str(f), "--out", str(out)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "caf\u00e9 c=1" in out.read_bytes().decode("utf-8")


def test_verify_names_each_failed_identity(tmp_path, capsys):
    # monomial generators are not generic: the first module misses the
    # type-count identity at u=3 and the second the subset recount
    f = tmp_path / "monomials.txt"
    f.write_text("monomial r=3 e=4 t=4 seed=1\nmonomial r=4 e=4 t=4 seed=0\n")
    assert cli.main(["verify", str(f)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3:-1] == [
        "monomial-r3-e4-t4-s1 u=3: identity type-count FAILED (lhs 3, rhs 7)",
        "monomial-r4-e4-t4-s0 u=3: identity recount FAILED (lhs 9, rhs 3)",
    ]
    assert "identities=16+2-" in out[-1]
    assert cli.main(["verify", str(f), "--format", "json"]) == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["identityChecksFailed"] == 2
    assert summary["identityFailures"] == [
        {"label": "monomial-r3-e4-t4-s1", "u": 3, "identity": "type-count",
         "lhs": 3, "rhs": 7},
        {"label": "monomial-r4-e4-t4-s0", "u": 3, "identity": "recount",
         "lhs": 9, "rhs": 3},
    ]


def test_verify_exit_code_on_violation(manifest_file, capsys, monkeypatch):
    # force the summary to report a violation: the exit code must flip
    from levelalg.manifest import RunSummary

    real = cli.run_manifest

    def rigged(manifest, field=None, seed=0):
        summary, reports = real(manifest, field=field, seed=seed)
        broken = RunSummary(
            instances=summary.instances,
            satisfied=summary.satisfied - 1,
            violated=summary.violated + 1,
            tight_instances=summary.tight_instances,
            identity_checks_passed=summary.identity_checks_passed,
            identity_checks_failed=summary.identity_checks_failed,
            wall_time=summary.wall_time,
            seed=summary.seed,
        )
        return broken, reports

    monkeypatch.setattr(cli, "run_manifest", rigged)
    assert cli.main(["verify", manifest_file]) == 1
    capsys.readouterr()


# ------------------------------------------------------------ combinatorics


def test_combinatorics_identities(capsys):
    assert cli.main(["combinatorics", "--identities", "8"]) == 0
    assert capsys.readouterr().out == "all pass\n"


def test_combinatorics_identities_bad_tmax(capsys):
    assert cli.main(["combinatorics", "--identities", "1"]) == 3
    assert "TMAX" in capsys.readouterr().err


def test_combinatorics_expand(capsys):
    assert cli.main(["combinatorics", "--expand", "4,2"]) == 0
    assert capsys.readouterr().out == "C(3,2)+C(1,1); growth 5\n"
    assert cli.main(["combinatorics", "--expand", "6,2"]) == 0
    assert capsys.readouterr().out == "C(4,2); growth 10\n"
    assert cli.main(["combinatorics", "--expand", "4"]) == 3
    assert "malformed --expand: expected N,I, got '4'" in capsys.readouterr().err
    assert cli.main(["combinatorics", "--expand", "0,2"]) == 3


def test_combinatorics_osequence(capsys):
    assert cli.main(["combinatorics", "--osequence", "1,3,5,7,7,5,3"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert cli.main(["combinatorics", "--osequence", "1,3,4,6"]) == 0
    assert capsys.readouterr().out == "false at d=2 (6 > 5)\n"
    assert cli.main(["combinatorics", "--osequence", "2,1"]) == 0
    assert capsys.readouterr().out == "false at d=0 (leading entry)\n"
    assert cli.main(["combinatorics", "--osequence", "1,-2,1"]) == 3


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--h", "1,2,2"])  # missing required --t/--c
    assert exc.value.code == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["combinatorics", "--expand", "4,2", "--osequence", "1"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_cached_parser_answers_each_call_as_a_fresh_one(manifest_file, capsys):
    # one parser serves every call of a process: a usage error, then
    # --rational, then the same verify without it each answer as a freshly
    # built parser does, and --rational does not carry into the next call
    calls = [
        ["bound", "--h", "1,2,2"],
        ["verify", manifest_file, "--rational", "--format", "json", "--seed", "1"],
        ["verify", manifest_file, "--format", "json", "--seed", "1"],
    ]

    def run(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        if out:
            out = json.loads(out)
            out["summary"].pop("wallTime")
        return rc, out, err

    def fresh(argv):
        cli._build_parser.cache_clear()
        return run(argv)

    want = [fresh(argv) for argv in calls]
    cli._build_parser.cache_clear()
    got = [run(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert got == want
    assert [rc for rc, _, _ in got] == [3, 0, 0]
    assert got[1][1]["reports"][0]["prime"] is None
    assert got[2][1]["reports"][0]["prime"] == FieldSpec.modular().prime


def test_module_entry_point(module_file):
    proc = subprocess.run(
        [sys.executable, "-m", "levelalg.cli", "hvector", module_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 4 4 3\n"

"""Inline suppression mechanics: reasons, aliases, targeting, SUP001/2."""

import textwrap

from repro.analysis import run_paths
from repro.analysis.core import (
    FAMILY_ALIASES,
    all_checkers,
    parse_suppressions,
)
from repro.analysis.runner import check_file

LOOP_TEMPLATE = """\
def run(tokens):
    for token in set(tokens):{trailer}
        {body}
"""


def write_module(tmp_path, source):
    target = tmp_path / "src" / "repro" / "serve" / "mod.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def check(tmp_path, source):
    target = write_module(tmp_path, source)
    return check_file(str(target), str(tmp_path))


def test_every_family_alias_names_a_registered_checker():
    codes = {checker.CODE for checker in all_checkers()}
    assert sorted(set(FAMILY_ALIASES.values()) - codes) == []


def test_suppression_with_reason_silences_finding(tmp_path):
    active, suppressed = check(tmp_path, LOOP_TEMPLATE.format(
        trailer="  # repro: allow-unordered -- membership only",
        body="record(token)"))
    assert active == []
    assert [finding.code for finding in suppressed] == ["DET001"]


def test_suppression_without_reason_yields_sup001(tmp_path):
    active, suppressed = check(tmp_path, LOOP_TEMPLATE.format(
        trailer="  # repro: allow-unordered", body="record(token)"))
    assert [finding.code for finding in suppressed] == ["DET001"]
    assert [finding.code for finding in active] == ["SUP001"]
    assert "no reason" in active[0].message


def test_exact_code_suppression_matches_only_that_code(tmp_path):
    active, suppressed = check(tmp_path, LOOP_TEMPLATE.format(
        trailer="  # repro: allow-det001 -- commutative fold",
        body="record(token)"))
    assert active == []
    assert [finding.code for finding in suppressed] == ["DET001"]

    active, suppressed = check(tmp_path, LOOP_TEMPLATE.format(
        trailer="  # repro: allow-det002 -- wrong code on purpose",
        body="record(token)"))
    assert [finding.code for finding in active] == ["DET001"]
    assert suppressed == []


def test_comment_only_line_covers_next_code_line(tmp_path):
    active, suppressed = check(tmp_path, """\
    def run(tokens):
        # repro: allow-unordered -- counts are commutative
        for token in set(tokens):
            record(token)
    """)
    assert active == []
    assert [finding.code for finding in suppressed] == ["DET001"]


def test_unrelated_line_suppression_does_not_cover(tmp_path):
    active, suppressed = check(tmp_path, """\
    def run(tokens):
        total = 0  # repro: allow-unordered -- wrong line
        for token in set(tokens):
            total += 1
        return total
    """)
    assert [finding.code for finding in active] == ["DET001"]
    assert suppressed == []


def test_parse_suppressions_extracts_token_reason_target():
    source = textwrap.dedent("""\
    value = compute()  # repro: allow-unpicklable -- process-local
    # repro: allow-durability -- scratch file
    publish()
    """)
    first, second = parse_suppressions(source)
    assert (first.token, first.reason, first.line, first.target_line) == \
        ("unpicklable", "process-local", 1, 1)
    assert (second.token, second.reason, second.line, second.target_line) == \
        ("durability", "scratch file", 2, 3)


def test_docstring_allow_examples_are_not_suppressions():
    # Only genuine comment tokens count — a docstring quoting the
    # syntax (as the checker modules themselves do) must not register.
    source = textwrap.dedent('''\
    """Suppress with ``# repro: allow-durability -- <reason>``."""

    import os


    def publish(a, b):
        os.rename(a, b)  # repro: allow-durability -- scratch file
    ''')
    (only,) = parse_suppressions(source)
    assert only.line == 7


def run_tree(tmp_path, source):
    target = tmp_path / "src" / "repro" / "serve" / "mod.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_paths(["src"], str(tmp_path), baseline=[])


def test_unused_reasoned_suppression_yields_sup002(tmp_path):
    report = run_tree(tmp_path, """\
    def run(tokens):
        # repro: allow-unordered -- nothing here needs this
        return list(tokens)
    """)
    assert [f.code for f in report.findings] == ["SUP002"]
    assert report.findings[0].line == 2
    assert "matches no finding" in report.findings[0].message


def test_used_suppression_yields_no_sup002(tmp_path):
    report = run_tree(tmp_path, LOOP_TEMPLATE.format(
        trailer="  # repro: allow-unordered -- membership only",
        body="record(token)"))
    assert report.findings == []
    assert [f.code for f in report.suppressed] == ["DET001"]


def test_sup001_still_wins_over_sup002_for_reasonless(tmp_path):
    # A reasonless suppression that also matches nothing reports the
    # missing reason (SUP001), not the staleness (SUP002).
    report = run_tree(tmp_path, """\
    def run(tokens):
        # repro: allow-unordered
        return list(tokens)
    """)
    assert [f.code for f in report.findings] == ["SUP001"]

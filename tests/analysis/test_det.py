"""DET checker: fixture-verified positives, negatives, and scoping."""

from pathlib import Path

from repro.analysis.det import DeterminismChecker


def test_det_bad_fixture_exact_codes_and_lines(load_fixture, line_of):
    context, source = load_fixture("det_bad.py", "repro/engine/det_bad.py")
    findings = list(DeterminismChecker().check(context))
    expected = {
        ("DET001", line_of(source, 'for item in {"b", "a"}:')),
        ("DET001", line_of(source, "for name in names:")),
        ("DET001", line_of(source, "for token in set(tokens)")),
        # list(...) / tuple(...) freeze a set's order like a loop does
        ("DET001", line_of(source, "return list(set(tokens)), tuple({")),
        ("DET002", line_of(source, "for entry in os.listdir(path):")),
        ("DET003", line_of(source, "math.fsum({")),
        ("DET004", line_of(source, "key=lambda kv: kv[1])")),
        ("DET004", line_of(source, "scores.values()")),
        # a set-annotated callee of the same module / class
        ("DET001", line_of(source, "for gram in gram_set(text)")),
        ("DET001", line_of(source, "for gram in self._grams(value):")),
        ("DET003", line_of(source, "return sum(self._grams(value))")),
    }
    assert {(finding.code, finding.line) for finding in findings} == expected
    assert all(finding.file == "repro/engine/det_bad.py"
               for finding in findings)


def test_det_good_fixture_is_clean(load_fixture):
    context, _source = load_fixture("det_good.py", "repro/serve/det_good.py")
    assert list(DeterminismChecker().check(context)) == []


def test_det_checker_scope(load_fixture):
    checker = DeterminismChecker()
    in_scope, _ = load_fixture("det_bad.py", "repro/fusion/det_bad.py")
    out_of_scope, _ = load_fixture("det_bad.py", "repro/datagen/det_bad.py")
    assert checker.interested(in_scope)
    assert not checker.interested(out_of_scope)


def test_det_finding_render_format(load_fixture):
    context, _source = load_fixture("det_bad.py", "repro/engine/det_bad.py")
    finding = next(iter(DeterminismChecker().check(context)))
    rendered = finding.render()
    assert rendered.startswith(f"repro/engine/det_bad.py:{finding.line} DET")


# ----------------------------------------------------------------------
# DET001 across modules: set-annotated methods of another object
# ----------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src"
MAPPING = "src/repro/core/mapping.py"
NEIGHBORHOOD = "src/repro/core/matchers/neighborhood.py"
TABLE7 = "src/repro/eval/experiments/table7.py"


def _live(path):
    return (SRC.parent / path).read_text(encoding="utf-8")


def test_set_method_flags_the_parents_table7(lint_tree, fixture_text,
                                             line_of):
    """``list(neighborhood.pairs())``: the local was assigned from
    ``neighborhood_match(...) -> Mapping`` (another module), whose
    ``pairs`` is annotated ``-> Set[...]`` (a third) — the candidate
    order of tables 7 / 8 / 10 followed PYTHONHASHSEED until PR 21."""
    source = fixture_text("det_table7_parent.py")
    report = lint_tree({TABLE7: source, MAPPING: _live(MAPPING),
                        NEIGHBORHOOD: _live(NEIGHBORHOOD)})
    assert [(f.file, f.line, f.code) for f in report.findings] == [
        (TABLE7, line_of(source, "list(neighborhood.pairs())"), "DET001")]
    # the table as it is now hands the mapping over itself
    report = lint_tree({TABLE7: _live(TABLE7)})
    assert report.findings == []


USES = '''\
from typing import Iterator, Optional, Set

from repro.core.mapping import Mapping
from repro.blocking.pair_generator import PairShard


def annotated_parameter(mapping: Mapping):
    return [pair for pair in mapping.pairs()]


def optional_parameter(mapping: "Optional[Mapping]" = None):
    return tuple(mapping.domain_ids())


def constructed():
    mapping = Mapping("A", "B")
    for pair in mapping.pairs():
        yield pair


def from_classmethod(columns):
    mapping = Mapping.of("A", "B", columns)
    return list(mapping.range_ids())


def sorted_is_fine(mapping: Mapping):
    return sorted(mapping.pairs()), len(list(mapping.pairs()))


def rebound_is_unknown(mapping: Mapping, other):
    mapping = other
    return list(mapping.pairs())


def iterator_method_is_fine(shard: PairShard):
    return list(shard.pairs())


def list_method_is_fine(mapping: Mapping):
    return list(mapping.correspondences())
'''


def test_set_method_receiver_bindings(lint_tree, line_of):
    report = lint_tree({
        "src/repro/core/uses.py": USES, MAPPING: _live(MAPPING),
        "src/repro/blocking/pair_generator.py":
            _live("src/repro/blocking/pair_generator.py")})
    findings = {(f.line, f.code) for f in report.findings
                if f.file == "src/repro/core/uses.py"}
    assert findings == {
        (line_of(USES, "for pair in mapping.pairs()]"), "DET001"),
        (line_of(USES, "tuple(mapping.domain_ids())"), "DET001"),
        (line_of(USES, "for pair in mapping.pairs():"), "DET001"),
        (line_of(USES, "list(mapping.range_ids())"), "DET001"),
    }


def test_set_method_checker_scope(lint_tree):
    out_of_scope = "src/repro/datagen/uses.py"
    report = lint_tree({out_of_scope: USES, MAPPING: _live(MAPPING)})
    assert [f for f in report.findings if f.file == out_of_scope] == []

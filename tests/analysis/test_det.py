"""DET checker: fixture-verified positives, negatives, and scoping."""

from repro.analysis.det import DeterminismChecker


def test_det_bad_fixture_exact_codes_and_lines(load_fixture, line_of):
    context, source = load_fixture("det_bad.py", "repro/engine/det_bad.py")
    findings = list(DeterminismChecker().check(context))
    expected = {
        ("DET001", line_of(source, 'for item in {"b", "a"}:')),
        ("DET001", line_of(source, "for name in names:")),
        ("DET001", line_of(source, "for token in set(tokens)")),
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

"""KRN001 — registered kernels must implement the scoring surface."""

COLUMNS = "src/repro/engine/columns.py"


def test_krn_bad_flags_each_hole_at_the_class(lint_tree, fixture_text,
                                              line_of):
    source = fixture_text("krn_bad.py")
    report = lint_tree({COLUMNS: source})
    assert {(f.line, f.code) for f in report.findings} == {
        (line_of(source, "class NoBoundKernel:"), "KRN001"),
        (line_of(source, "class NoFlagKernel:"), "KRN001"),
    }
    messages = "\n".join(f.message for f in report.findings)
    assert "score_bound_rows" in messages
    assert "orientation_symmetric" in messages


def test_krn_reaches_kernels_through_helper_calls(lint_tree, fixture_text):
    # NoFlagKernel is only instantiated inside _build_indirect(); the
    # checker must follow build_column -> _build_indirect to find it.
    report = lint_tree({COLUMNS: fixture_text("krn_bad.py")})
    assert any("NoFlagKernel" in f.message for f in report.findings)


def test_krn_good_is_clean(lint_tree, fixture_text):
    # Both styles of declaring the flag (class attribute and __init__
    # assignment) satisfy the contract.
    report = lint_tree({COLUMNS: fixture_text("krn_good.py")})
    assert report.findings == []


INHERITED = '''\
class _BaseKernel:
    orientation_symmetric = True

    def kernel_rows(self, domain_rows, range_rows):
        return [1.0]


class DerivedKernel(_BaseKernel):
    def score_bound_rows(self, domain_rows, range_rows):
        return [1.0]


def build_column(sim, reference_values):
    return DerivedKernel()
'''


def test_krn_counts_project_local_base_class_members(lint_tree):
    report = lint_tree({COLUMNS: INHERITED})
    assert report.findings == []

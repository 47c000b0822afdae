"""LCK002/LCK003 — interprocedural lock discipline and order cycles."""

SERVICE = "src/repro/serve/service.py"
LOCKS = "src/repro/serve/locks.py"


def test_lck002_flags_only_unlocked_paths(lint_tree, fixture_text,
                                          line_of):
    source = fixture_text("lck2_bad.py")
    report = lint_tree({SERVICE: source})
    assert {(f.line, f.code) for f in report.findings} == {
        (line_of(source, "bad: public caller holds nothing"), "LCK002"),
        (line_of(source, "bad: helper chain holds nothing"), "LCK002"),
    }


def test_lck002_private_helper_called_under_lock_is_clean(lint_tree,
                                                          fixture_text,
                                                          line_of):
    # _helper is only ever called with _lock held; a purely syntactic
    # rule would flag its self._flush() — LCK002 must not.
    source = fixture_text("lck2_bad.py")
    report = lint_tree({SERVICE: source})
    helper_call = line_of(source, "def _helper(self):") + 1
    assert all(f.line != helper_call for f in report.findings)


def test_lck002_acquire_release_span_is_recognised(lint_tree,
                                                   fixture_text, line_of):
    # The try/finally acquire()/release() shape in ok_acquire covers
    # the guarded call — no finding inside that span.
    source = fixture_text("lck2_bad.py")
    report = lint_tree({SERVICE: source})
    guarded = line_of(source, "self._lock.acquire()") + 2
    assert all(f.line != guarded for f in report.findings)


def test_lck003_reports_the_ab_ba_cycle(lint_tree, fixture_text):
    report = lint_tree({LOCKS: fixture_text("lck3_bad.py")})
    assert {f.code for f in report.findings} == {"LCK003"}
    message = report.findings[0].message
    assert "Service._lock" in message
    assert "Repository._lock" in message
    assert "deadlock" in message


def test_lck003_consistent_order_is_clean(lint_tree, fixture_text):
    report = lint_tree({LOCKS: fixture_text("lck3_good.py")})
    assert report.findings == []

from covertq.verify import _Tally


def test_tally_counts_every_failure_and_keeps_ten_details():
    t = _Tally("demo")
    for i in range(30):
        t.check(i % 6 != 0, f"case {i}")  # 5 passes
    for i in range(20):
        t.check(False, f"extra {i}")
    out = t.result()
    assert out["passes"] == 25
    assert out["failures"] == 25
    assert len(out["details"]) == 11
    assert out["details"][:2] == ["case 0", "case 6"]
    assert out["details"][-1] == "..."

"""Report formatting."""

from repro.analysis.report import format_table


def test_format_table_alignment():
    text = format_table(
        ["name", "value"],
        [["alpha", "1"], ["b", "22"]],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert set(lines[2]) <= {"-", " "}
    assert len({len(line) for line in lines[1:]}) <= 2


def test_format_table_empty_rows():
    text = format_table(["a"], [])
    assert "a" in text

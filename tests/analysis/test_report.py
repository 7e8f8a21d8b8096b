"""Tests for the one-shot reproduction report."""

import pytest

from repro.analysis.report import main


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    """The fast report, generated once through the CLI."""
    out = tmp_path_factory.mktemp("report") / "report.md"
    assert main(["--fast", "--output", str(out)]) == 0
    return out.read_text()


class TestReport:
    def test_contains_every_section(self, report_file):
        for heading in (
            "# FlexLevel reproduction report",
            "## Fig. 5",
            "## Table 4",
            "## Table 5",
            "## Fig. 6(a)",
            "## Fig. 7",
        ):
            assert heading in report_file

    def test_mentions_paper_targets(self, report_file):
        assert "paper: 66" in report_file or "(paper: 78" in report_file

    def test_all_workloads_listed(self, report_file):
        for workload in ("fin-2", "web-1", "prj-1", "win-2"):
            assert workload in report_file

    def test_cli_writes_file(self, report_file):
        assert report_file.startswith("# FlexLevel reproduction report")
        # The CLI appends exactly one newline after the report.
        assert report_file.endswith("._\n")
        assert not report_file.endswith("\n\n")

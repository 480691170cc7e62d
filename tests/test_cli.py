"""The ``python -m repro`` command-line interface."""

import hashlib

import pytest

from repro.__main__ import main


class TestCLI:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for number in range(1, 7):
            assert f"Figure {number}" in out

    def test_single_figure(self, capsys):
        assert main(["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "726256" in out
        assert "Figure 3" not in out

    def test_figure_range_validated(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])

    def test_gap(self, capsys):
        assert main(["gap"]) == 0
        out = capsys.readouterr().out
        assert "StrongARM" in out and "Pentium" in out

    def test_battery(self, capsys):
        assert main(["battery"]) == 0
        out = capsys.readouterr().out
        assert "less than half" in out
        assert "battery gap projection" in out

    def test_appliance(self, capsys):
        assert main(["appliance", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "boot: ok" in out
        assert "unlock: True" in out

    def test_attacks(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "key recovered" in out
        assert "defeated (masking)" in out
        assert "modulus factored" in out
        assert "faulty signature withheld" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


#: sha256 of each seed-2003 report; a changed digest means a changed
#: report, which every byte-stability gate downstream would reject.
REPORT_SHA256 = {
    "failover":
        "800f42a0504e9181970500eb966b6ad16771dcb10454fa11af9fd57bab1c2ad4",
    "survivability":
        "1e2518f94b33f8c739f516eba3f0d627380fa9889115a4573f7f44f67190a00f",
    "mcommerce":
        "17647cf3a91c0a87b12f433124a006af146b0919c38eebe73642a20541929fbf",
    "fleetwatch":
        "0d6f171c9b47061b20573b3b5e3531ce7d6fa7e3cc8935f7c62165833f3cd9a0",
}


class TestRunScenario:
    @pytest.mark.parametrize("name", sorted(REPORT_SHA256))
    def test_seed_2003_report(self, name, tmp_path, capsys):
        assert main(["run", name, "--seed", "2003",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / f"{name}.json").read_bytes()
        assert capsys.readouterr().out.encode() == report
        assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[name]
        if name == "fleetwatch":
            for suffix in ("jsonl", "prom", "folded"):
                assert (tmp_path / f"fleetwatch.{suffix}").stat().st_size

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "nope"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

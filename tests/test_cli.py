"""The ``python -m repro`` command-line interface."""

import hashlib

import pytest

from repro.__main__ import SCENARIOS, main
from repro.fleet.runtime import ShardedFleet


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


#: sha256 of every file each scenario writes at seed 2003; a changed
#: digest means a changed output, which every byte-stability gate
#: downstream would reject.  The first file is the report.
OUTPUT_SHA256 = {
    "conformance": {
        "conformance.txt":
            "9be73d7356264812bd81237b77a2ca6d0ee7bda7a9ff9137376e63f68af83e58",
    },
    "failover": {
        "failover.json":
            "800f42a0504e9181970500eb966b6ad16771dcb10454fa11af9fd57bab1c2ad4",
    },
    "survivability": {
        "survivability.json":
            "1e2518f94b33f8c739f516eba3f0d627380fa9889115a4573f7f44f67190a00f",
    },
    "mcommerce": {
        "mcommerce.json":
            "4ad13943907496637c1033cff2168325b0d98db6b4d558bdc68ab525f6637bfa",
    },
    "fleetwatch": {
        "fleetwatch.json":
            "73a16119b9ffb30c19779c20efb98a0c40286f96ac4fbf10fd488030e8af9bde",
        "fleetwatch.jsonl":
            "eaa3a857d102c7d9b594a2dc5a69abecc6949906fa346eca804685cca13e18fd",
        "fleetwatch.prom":
            "8216bc3235876f0e6e6468e26da9c4d99c8fcfa14f53dbf6f3a55b64bcea8f42",
        "fleetwatch.folded":
            "9cf2a645a414bde0e3fad50662fdb7e07e29d7194a573631da37f406ca939ef6",
    },
    "telemetry": {
        "telemetry.txt":
            "842662f647480567505c1af65c0a8384998dde0548f48c634231dc8d715510a4",
        "telemetry.jsonl":
            "c0e4056fda0f98130827b989b0b5755d0605d6daca24c4ac343bdbc79ad7ee2d",
        "telemetry.prom":
            "dcce15ba0cb841713bf82b2e82b27eea5e7156b342effe74d32497ce434706f2",
        "telemetry.folded":
            "6d1e2a726ecf666deccb4a68037ee0b84a95cf4be4bbed7517b03fd43df4e914",
    },
}


class TestRunScenario:
    def test_every_scenario_is_pinned(self):
        assert sorted(OUTPUT_SHA256) == sorted(SCENARIOS)

    @pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
    def test_seed_2003_report(self, name, tmp_path, capsys):
        assert main(["run", name, "--seed", "2003",
                     "--out", str(tmp_path)]) == 0
        expected = OUTPUT_SHA256[name]
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == sorted(expected)
        report = (tmp_path / next(iter(expected))).read_bytes()
        assert capsys.readouterr().out.encode() == report
        digests = {filename: hashlib.sha256(
            (tmp_path / filename).read_bytes()).hexdigest()
            for filename in expected}
        assert digests == expected

    def test_lost_reply_fails_the_run(self, monkeypatch, capsys):
        collect = ShardedFleet.collect_replies

        def drop_last_of_handset_00(fleet, session_id):
            replies = collect(fleet, session_id)
            return replies[:-1] if session_id == "handset-00" else replies

        monkeypatch.setattr(ShardedFleet, "collect_replies",
                            drop_last_of_handset_00)
        assert main(["run", "failover", "--seed", "2003"]) == 1
        assert '"answered": 143' in capsys.readouterr().out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "nope"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

"""``tools/e2e_digests.py`` prints one ``NAME SEED DIGEST FAILED`` line
per workload, with the digest the benchmark's warm-up iteration gives."""

import importlib.util
import pathlib

from repro.crypto import fastpath

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "e2e_digests", REPO_ROOT / "tools" / "e2e_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_handshake_storm_digest_at_seed_2003(capsys):
    tool = _load_tool()
    with fastpath.force(True):
        status = tool.main(["--workload", "handshake_storm", "--seed", "2003"])
    name, seed, digest, failed = capsys.readouterr().out.split()
    assert status == 0
    assert (name, seed, failed) == ("handshake_storm", "2003", "0")
    assert digest.startswith("86be355fe1a5")

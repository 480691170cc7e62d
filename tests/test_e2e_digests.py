"""``tools/e2e_digests.py`` prints one ``NAME SEED DIGEST FAILED`` line
per workload, with the digest the benchmark's warm-up iteration gives."""

import importlib.util
import pathlib

import pytest

from repro.crypto import fastpath

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "e2e_digests", REPO_ROOT / "tools" / "e2e_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The seed-2003 digest prefix of each workload's first iteration.
DIGESTS_AT_2003 = {
    "failover_3des": "a0a5b94a0919",
    "mcommerce_stream": "e24651a95b4d",
    "handshake_storm": "86be355fe1a5",
    "handset_records": "5ae69adfa868",
}


@pytest.mark.parametrize("workload", list(DIGESTS_AT_2003))
def test_digest_at_seed_2003(workload, capsys):
    tool = _load_tool()
    with fastpath.force(True):
        status = tool.main(["--workload", workload, "--seed", "2003"])
    name, seed, digest, failed = capsys.readouterr().out.split()
    assert status == 0
    assert (name, seed, failed) == (workload, "2003", "0")
    assert digest.startswith(DIGESTS_AT_2003[workload])

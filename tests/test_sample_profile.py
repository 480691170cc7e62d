"""``tools/sample_profile.py`` prints a header line, a column line and
one ``LEAF% INCL% FILE:FUNCTION`` row per listed function, and leaves
no timer armed behind it."""

import importlib.util
import pathlib
import re
import signal

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

ROW = re.compile(r"^ *(\d+\.\d) +(\d+\.\d)  (\S.*:\S+)$")


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "sample_profile", REPO_ROOT / "tools" / "sample_profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tenths(share: str) -> int:
    """A printed share in whole tenths of a percent (exact, no float)."""
    return int(share.replace(".", ""))


def test_prints_leaf_and_inclusive_shares(capsys):
    tool = _load_tool()
    handler = signal.getsignal(signal.SIGPROF)
    status = tool.main(["--workload", "handset_records", "--seed", "2003",
                        "--seconds", "0.1"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    header = re.fullmatch(
        r"workload handset_records seed 2003 iterations (\d+) "
        r"samples (\d+) failed 0", lines[0])
    assert header and int(header[1]) >= 1 and int(header[2]) > 0
    assert lines[1].split() == ["leaf%", "incl%", "function"]
    rows = [ROW.match(line) for line in lines[2:]]
    assert rows and all(rows)
    leaf = [float(row[1]) for row in rows]
    shares = {row[3]: (float(row[1]), float(row[2])) for row in rows}
    assert leaf == sorted(leaf, reverse=True)
    assert sum(_tenths(row[1]) for row in rows) <= 1000     # <= 100.0%
    assert all(incl >= max(tool.MIN_SHARE, lf)
               for lf, incl in shares.values())
    assert shares["tools/sample_profile.py:main"][1] == 100.0
    assert any(name.startswith("src/repro/crypto/") for name in shares)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler


def test_rows_round_shares_down():
    """Six functions of one sample each: nearest rounding would print
    16.7 six times, 100.2 in all; rounding down prints 16.6."""
    tool = _load_tool()
    sampler = tool.StackSampler()
    names = [f"mod.py:f{index}" for index in range(6)]
    sampler.samples = len(names)
    sampler.leaf.update(names)
    sampler.inclusive.update(names)
    rows = [ROW.match(line) for line in sampler.rows()]
    assert all(rows)
    assert [(row[1], row[2], row[3]) for row in rows] == [
        ("16.6", "16.6", name) for name in names]
    assert sum(_tenths(row[1]) for row in rows) <= 1000

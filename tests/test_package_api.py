"""Public API surface: every exported name exists and is documented,
and importing a package loads only what its caller uses."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import textwrap

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg]

#: The ``__all__`` names that are modules; every other export must not be.
MODULE_EXPORTS = {
    "repro": {"crypto", "protocols", "hardware", "attacks", "core",
              "analysis", "observability", "conformance", "fleet"},
    "repro.crypto": {"fastpath"},
    "repro.observability": {"probe"},
}

#: Exports a package binds when it is imported, outside its lazy map:
#: each is named like the submodule that defines it.
EAGER_EXPORTS = {
    "repro.analysis": {"sweep"},
    "repro.crypto": {"hmac", "md5", "sha1"},
}

#: Modules importing the fleet and WTLS must not load: the fleet's
#: record path needs none of them.
NOT_FOR_THE_FLEET = [
    *(f"repro.{name}" for name in (
        "analysis", "attacks", "conformance", "core", "adversary",
        "workloads")),
    *(f"repro.protocols.{name}" for name in (
        "smartcard", "dos", "aka", "bearer", "ipsec", "payment")),
    "repro.hardware.accelerators",
    "repro.hardware.engine_program",
]

#: Run in a fresh interpreter: import every module of the package tree
#: first, so an export that shares its name with a submodule
#: (``repro.crypto.sha1``) shows if the submodule import rebound it.
_SURFACE = textwrap.dedent("""
    import importlib, json, pkgutil, sys, types
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    report = {}
    for name in PACKAGES:
        package = sys.modules[name]
        report[name] = {
            "missing": [n for n in package.__all__ if not hasattr(package, n)],
            "modules": sorted(
                n for n in package.__all__
                if isinstance(getattr(package, n, None), types.ModuleType)),
            "not_in_dir": [n for n in package.__all__ if n not in dir(package)],
        }
    print(json.dumps(report))
""")


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, env=env)


@pytest.fixture(scope="module")
def surface():
    """Per package: exports missing, module-valued, and absent from dir()."""
    out = _fresh("-c", f"PACKAGES = {PACKAGES!r}\n{_SURFACE}")
    return json.loads(out.stdout.splitlines()[-1])


def test_every_package_is_discovered():
    assert {"repro.adversary", "repro.fleet", "repro.workloads",
            *MODULE_EXPORTS} <= set(PACKAGES)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name, surface):
    report = surface[package_name]
    assert report["missing"] == [], \
        f"{package_name}.__all__ exports missing names"
    assert set(report["modules"]) == MODULE_EXPORTS.get(package_name, set()), \
        f"{package_name}.__all__ names resolve to the wrong kind of object"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dir_lists_every_export(package_name, surface):
    assert surface[package_name]["not_in_dir"] == []


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_documented(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__) > 40


@pytest.mark.parametrize("package_name", PACKAGES[1:])
def test_exports_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in package.__all__:
        item = getattr(package, name)
        if callable(item) and not getattr(item, "__doc__", None):
            undocumented.append(name)
    assert undocumented == []


def _lazy_map_names(package_name: str) -> list:
    """Every name the ``lazy_exports`` map in the package's
    ``__init__`` lists, duplicates kept."""
    path = importlib.import_module(package_name).__file__
    tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            for value in node.args[1].values:
                names += value.value.split()
    return names


@pytest.mark.parametrize("package_name", PACKAGES)
def test_each_export_is_listed_once(package_name):
    """``__all__`` is the lazy map's names plus the eager bindings, and
    the package lists no name twice."""
    names = _lazy_map_names(package_name)
    eager = EAGER_EXPORTS.get(package_name, set())
    assert len(names) == len(set(names))
    assert not eager & set(names)
    package = importlib.import_module(package_name)
    assert sorted(package.__all__) == sorted({*names, *eager})


#: Names a cache of the gateway's wired TLS legs has gone by.
_WIRED_LEG_STATE = re.compile(
    r"\b_wired_legs?\b|\b_server_connections?\b|\b_origin_sides\b"
    r"|\b_drop_wired_leg\b")


def test_gateway_has_one_serve_path():
    """``GatewayRuntime`` is the one way a request crosses the gateway:
    no single-handset serve loop or breaker settings are exported."""
    import repro.protocols as protocols
    from repro.protocols.gateway_runtime import RuntimeConfig

    assert not {"build_wap_world", "BreakerConfig"} & set(protocols.__all__)
    assert list(RuntimeConfig.__dataclass_fields__) == [
        "queue_limit", "bucket_capacity", "bucket_refill_per_s",
        "service_time_s", "reply_batch"]


def test_gateway_is_one_object():
    """``GatewayRuntime`` is the gateway: no second gateway object is
    exported or passed in, and no other module keeps wired-leg state."""
    import repro.protocols as protocols
    from repro.protocols import wap
    from repro.protocols.gateway_runtime import GatewayRuntime

    assert "WAPGateway" not in protocols.__all__
    assert not hasattr(wap, "WAPGateway")
    assert not hasattr(wap, "build_gateway")
    parameters = inspect.signature(GatewayRuntime.__init__).parameters
    assert not {"gateway", "energy"} & set(parameters)
    src = pathlib.Path(repro.__file__).parent
    keepers = sorted(
        path.relative_to(src).as_posix() for path in src.rglob("*.py")
        if _WIRED_LEG_STATE.search(path.read_text(encoding="utf-8")))
    assert keepers == ["protocols/gateway_runtime.py"]


def test_fleet_import_loads_only_what_the_fleet_uses():
    out = _fresh("-c", "import json, sys\n"
                       "import repro.fleet, repro.protocols.wtls\n"
                       "import repro.fleet.runtime\n"
                       "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(out.stdout))
    assert "repro.fleet.runtime" in loaded
    assert sorted(loaded.intersection(NOT_FOR_THE_FLEET)) == []


def test_cli_help_loads_no_subpackage():
    out = _fresh("-X", "importtime", "-m", "repro", "--help")
    assert "run" in out.stdout and "telemetry-report" not in out.stdout
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in out.stderr.splitlines()
              if line.startswith("import time:")}
    assert "repro" in loaded
    assert sorted(loaded.intersection(PACKAGES[1:])) == []


def test_version():
    assert repro.__version__ == "1.0.0"


def test_no_accidental_stdlib_crypto_dependency():
    """The reproduction's crypto is from scratch: the *reference*
    modules must not import hashlib/hmac/secrets internally (test
    files may, for cross-checks).

    One deliberate exemption: ``fastpath.py`` delegates whole-message
    hashing to stdlib ``hashlib`` — it is the wall-clock accelerator,
    not the reproduction, and ``tests/crypto/test_fastpath.py`` pins
    it bit-for-bit against the from-scratch reference paths (which
    stay hashlib-free and carry all the instrumentation).
    """
    import pathlib

    crypto_dir = pathlib.Path(importlib.import_module(
        "repro.crypto").__file__).parent
    for path in crypto_dir.glob("*.py"):
        source = path.read_text()
        forbidden = ["import secrets", "import ssl"]
        if path.name != "fastpath.py":
            forbidden += ["import hashlib", "from hashlib"]
        for needle in forbidden:
            assert needle not in source, \
                f"{path.name} uses stdlib crypto ({needle})"

"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a front door:

* ``figures``        — regenerate every paper figure's data;
* ``figure N``       — one figure only;
* ``attacks``        — run the §3.4 attack/countermeasure suite;
* ``gap``            — the Figure 3 feasibility explorer;
* ``battery``        — the Figure 4 report + battery-gap projection;
* ``appliance``      — provision/boot/unlock/transact walkthrough;
* ``run NAME``       — one seeded scenario from :data:`SCENARIOS`,
  its byte-stable report on stdout (and, with ``--out DIR``, every
  output file written into ``DIR``); exit status 0 when the result's
  ``ok`` holds — every request answered and every millijoule
  reconciled (for ``conformance``, every check passed):

  - ``conformance`` — official vectors on both dispatch paths,
    differential oracles, the handshake state-machine check, the
    seeded wire-format fuzzer and the regression corpus;
  - ``survivability`` — four seeded adversary classes against the
    gateway under benign load (goodput, shed, breakers, alerts,
    attacker-vs-user energy);
  - ``failover`` — the sharded fleet under a crash sweep that kills
    every shard at least once (restores, cold recovery, ``recovering``
    sheds, exact energy reconciliation);
  - ``mcommerce`` — the §2 m-commerce workload over a healthy fleet
    (stream suites, SET purchases, millijoules per transaction by
    suite and battery class);
  - ``fleetwatch`` — the failover run with fleet observability riding
    along (stitched journeys, windowed series, SLO burn alerts), plus
    fleet-scope JSONL, Prometheus and folded-stack exports;
  - ``telemetry`` — the gateway chaos run with the telemetry plane on:
    span-tree roll-up and per-phase energy attribution, plus the
    deterministic JSONL trace, Prometheus metrics and flamegraph folds.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from importlib import import_module
from typing import Callable, Dict, NamedTuple


def _cmd_figures(args: argparse.Namespace) -> int:
    from .analysis.figures import all_figures

    wanted = getattr(args, "number", None)
    for name, data in all_figures():
        if wanted is not None and name != f"Figure {wanted}":
            continue
        print("=" * 24, name, "=" * 24)
        print(data)
        print()
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from .attacks.countermeasures import verified_crt_sign
    from .attacks.fault import FaultInjector, bellcore_attack
    from .attacks.power import (
        MaskedAES,
        acquire_aes_traces,
        cpa_attack_aes,
    )
    from .crypto.errors import SignatureError
    from .crypto.rng import DeterministicDRBG
    from .crypto.rsa import generate_keypair

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    print("CPA vs AES:", end=" ")
    result = cpa_attack_aes(acquire_aes_traces(key, 150, seed=1))
    print("key recovered" if result.key == key else "failed")
    print("CPA vs masked AES:", end=" ")
    masked = cpa_attack_aes(
        acquire_aes_traces(key, 150, seed=1, cipher_factory=MaskedAES))
    print("defeated (masking)" if masked.key != key else "BROKEN")

    rsa = generate_keypair(512, DeterministicDRBG("cli-rsa"))
    message = b"cli attack demo"
    faulty = rsa.sign(message, use_crt=True,
                      fault_hook=FaultInjector(seed=1))
    factors = bellcore_attack(rsa.public, message, faulty)
    print("Bellcore fault attack:",
          "modulus factored" if factors else "failed")
    try:
        verified_crt_sign(rsa, message, fault_hook=FaultInjector(seed=2))
        print("CRT verification: BROKEN (faulty signature released)")
    except SignatureError:
        print("CRT verification: faulty signature withheld")
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from .analysis.report import format_table
    from .core.gap import compute_surface, max_sustainable_rate_mbps
    from .hardware.processors import CATALOG

    surface = compute_surface()
    rows = []
    for processor in CATALOG.values():
        rows.append((
            processor.name, processor.mips,
            f"{surface.feasible_fraction(processor):.0%}",
            f"{max_sustainable_rate_mbps(processor, 0.5):.2f}",
        ))
    print(format_table(
        ("processor", "MIPS", "feasible fraction",
         "max Mbps @0.5s"), rows))
    return 0


def _cmd_battery(args: argparse.Namespace) -> int:
    from .analysis.figures import figure4_data
    from .analysis.report import format_series
    from .core.battery_life import battery_gap_series

    print(figure4_data())
    series = [(year, int(count))
              for year, count in battery_gap_series(years=8)]
    print(format_series("battery gap projection", series,
                        "year", "secure transactions/charge"))
    return 0


def _cmd_appliance(args: argparse.Namespace) -> int:
    from .core.appliance import provision_appliance

    device = provision_appliance(seed=args.seed)
    report = device.boot()
    print(f"boot: {'ok' if report.succeeded else 'FAILED'} "
          f"({', '.join(report.stages_verified)})")
    sample = device._finger_simulator.read("owner")
    print(f"unlock: {device.unlock('owner', sample)}")
    execution = device.run_secure_transaction(kilobytes=1.0)
    print(f"secure transaction: {execution.time_s * 1000:.2f} ms on "
          f"{execution.engine}, battery at "
          f"{device.platform.battery.fraction_remaining:.4%}")
    return 0


def _lazy(module: str, name: str) -> Callable:
    """``module.name``, imported on first call, not at CLI start-up."""
    def call(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(
            *args, **kwargs)
    return call


def _json_report(name: str) -> Callable[[object], Dict[str, str]]:
    """Outputs of a scenario whose report is ``analysis.<name>``'s."""
    def outputs(result) -> Dict[str, str]:
        from .analysis.report import format_report
        build = import_module(f".analysis.{name}", __package__).build_report
        return {f"{name}.json": format_report(build(result))}
    return outputs


def _conformance_outputs(report) -> Dict[str, str]:
    from .conformance.runner import format_report
    return {"conformance.txt": format_report(report)}


def _fleetwatch_outputs(result) -> Dict[str, str]:
    from .observability.export import (
        fleet_flamegraph_folds,
        fleet_jsonl,
        prometheus_text,
    )
    telemetry = result.telemetry
    return {
        **_json_report("fleetwatch")(result),
        "fleetwatch.jsonl": fleet_jsonl(telemetry, result.store),
        "fleetwatch.prom": prometheus_text(telemetry),
        "fleetwatch.folded": fleet_flamegraph_folds(telemetry,
                                                    result.store),
    }


def _telemetry_outputs(result) -> Dict[str, str]:
    from .observability.attribution import phase_energy_mj
    from .observability.export import (
        flamegraph_folds,
        prometheus_text,
        rollup_table,
        span_tree,
        to_jsonl,
    )
    telemetry = result.telemetry
    params = result.params
    recon = result.reconciliation
    phases = sorted(phase_energy_mj(telemetry).items(),
                    key=lambda item: (-item[1], item[0]))
    report = "\n".join([
        "=" * 24 + " telemetry report " + "=" * 24,
        f"trace id: {telemetry.trace_id}  "
        f"(seed {params['seed']}, {params['sessions']} sessions x "
        f"{params['requests_per_session']} requests, "
        f"fault rate {params['fault_rate']})",
        f"replies: {result.counts}",
        "",
        "-- span tree (truncated) " + "-" * 37,
        span_tree(telemetry, max_spans=60),
        "",
        "-- energy/cycle roll-up " + "-" * 38,
        rollup_table(telemetry),
        "",
        "-- per-phase energy (mJ) " + "-" * 37,
        *(f"  {phase:<24} {mj:.6f}" for phase, mj in phases),
        f"  attributed {recon.attributed_mj:.6f} mJ vs battery drain "
        f"{recon.battery_drain_mj:.6f} mJ "
        f"(delta {recon.delta_mj:.3e}) -> "
        f"{'reconciled' if recon.ok else 'MISMATCH'}",
        "",
    ])
    return {
        "telemetry.txt": report,
        "telemetry.jsonl": to_jsonl(telemetry),
        "telemetry.prom": prometheus_text(telemetry),
        "telemetry.folded": flamegraph_folds(telemetry),
    }


class Scenario(NamedTuple):
    """One ``python -m repro run`` entry; its result's ``ok`` is the
    exit status."""

    #: Called as ``run(seed=N)``; every other size is the library default.
    run: Callable
    #: Result -> ``{filename: text}``; the first entry is the report.
    outputs: Callable[[object], Dict[str, str]]


SCENARIOS: Dict[str, Scenario] = {
    "conformance": Scenario(
        _lazy(".conformance.runner", "run_conformance"),
        _conformance_outputs),
    "survivability": Scenario(
        _lazy(".adversary", "run_survivability"),
        _json_report("survivability")),
    "failover": Scenario(
        _lazy(".fleet", "run_failover"), _json_report("failover")),
    "mcommerce": Scenario(
        _lazy(".workloads", "run_mcommerce"), _json_report("mcommerce")),
    "fleetwatch": Scenario(
        _lazy(".observability.fleetwatch", "run_fleetwatch"),
        _fleetwatch_outputs),
    "telemetry": Scenario(
        _lazy(".observability.scenario", "run_gateway_chaos"),
        _telemetry_outputs),
}


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.name]
    result = scenario.run(seed=args.seed)
    outputs = scenario.outputs(result)
    print(next(iter(outputs.values())), end="")
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for filename, text in outputs.items():
            with open(out / filename, "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(text)
    return 0 if result.ok else 1


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Securing Mobile Appliances (DATE 2003) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="regenerate all paper figures")
    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("number", type=int, choices=range(1, 7))
    sub.add_parser("attacks", help="run the attack/countermeasure demos")
    sub.add_parser("gap", help="Figure 3 feasibility explorer")
    sub.add_parser("battery", help="Figure 4 + battery-gap projection")
    appliance = sub.add_parser("appliance",
                               help="provision/boot/transact walkthrough")
    appliance.add_argument("--seed", type=int, default=0)
    run = sub.add_parser(
        "run", help="one seeded scenario -> byte-stable report")
    run.add_argument("name", choices=sorted(SCENARIOS))
    run.add_argument("--seed", type=int, default=2003)
    run.add_argument("--out", metavar="DIR", default=None,
                     help="also write every output file into DIR")

    args = parser.parse_args(argv)
    handlers = {
        "figures": _cmd_figures,
        "figure": _cmd_figures,
        "attacks": _cmd_attacks,
        "gap": _cmd_gap,
        "battery": _cmd_battery,
        "appliance": _cmd_appliance,
        "run": _cmd_run,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

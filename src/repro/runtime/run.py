"""CLI: run a registered streaming scenario.

::

    python -m repro.runtime.run --list
    python -m repro.runtime.run surveillance
    python -m repro.runtime.run surveillance --set cameras=8 --set frames=24
    python -m repro.runtime.run transcode_farm --no-cache
    python -m repro.runtime.run videoconferencing --map
    python -m repro.runtime.run dvr --scheduler edf
    python -m repro.runtime.run surveillance --scheduler platform --json
    python -m repro.runtime.run set_top_box --channel iid --loss 0.05
    python -m repro.runtime.run video_wall --channel gilbert --loss 0.05 --fec 2

``--set key=value`` overrides a scenario parameter (ints stay ints);
``--no-cache`` disables the shared segment cache to expose its benefit;
``--scheduler`` picks the virtual-time policy (default: the device's
contract in its :data:`repro.core.DEVICES` entry);
``--platform`` names the device whose SoC preset the ``platform``
scheduler prices (e.g. ``--platform surveillance``);
``--admission`` controls the start-up schedulability gate;
``--json`` emits the engine report as machine-readable JSON;
``--map`` additionally binds the scenario's device task graphs onto the
device's SoC preset and reports how many concurrent streams the mapping
sustains (:func:`repro.mapping.evaluate.sustainable_streams`).

Transport flags (:mod:`repro.net`): ``--channel`` routes every coded
stream through a seeded lossy channel (``iid`` or ``gilbert`` burst
loss) at rate ``--loss``; ``--fec N`` adds one XOR parity packet per
``N`` data packets, ``--interleave D`` spreads bursts over ``D`` parity
groups, ``--mtu`` sets the packet payload size, and ``--net-seed``
picks the loss/jitter trace.  The engine report then carries delivery
stats (loss %, FEC recoveries, late packets, concealed frames, PSNR
under loss).  On scenarios with built-in channels (the ``--list``
entries named ``wireless_*``/``lossy_*``) these flags *override* the
scenario's own defaults.

Observability flags (:mod:`repro.obs`): ``--trace-out FILE`` records the
run with a :class:`repro.obs.TraceRecorder` and writes a Chrome
trace-event JSON timeline (open it in https://ui.perfetto.dev — one lane
per session, per platform PE, per network link); ``--trace-jsonl FILE``
writes the same events as flat JSONL; ``--metrics-json FILE`` dumps the
run's metric registry; ``--quiet`` suppresses the human-readable report
for scripted use (file outputs and ``--json`` still happen).  Trace
timestamps are the engine's *virtual* seconds, so the same scenario and
seeds produce byte-identical trace files.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core import DEVICES, MultimediaSystem
from ..core.metrics import render_table
from ..mapping import evaluate_mapping, run_mapper, sustainable_streams
from ..net.channel import CHANNEL_KINDS
from ..net.delivery import attach_delivery
from ..obs import TraceRecorder, write_chrome_trace, write_jsonl
from .cache import SegmentCache
from .engine import AdmissionError, StreamEngine, measured_application
from .scenarios import REGISTRY, Scenario
from .schedulers import SCHEDULERS, make_scheduler


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = _parse_value(value.strip())
    return out


def list_scenarios() -> str:
    rows = [
        [
            sc.name,
            ", ".join(f"{k}={v}" for k, v in sc.defaults.items()) or "-",
            sc.device or "-",
            sc.default_scheduler,
            sc.description,
        ]
        for sc in sorted(REGISTRY, key=lambda s: s.name)
    ]
    return render_table(
        ["scenario", "parameters", "device", "scheduler", "description"],
        rows,
        title=f"{len(REGISTRY)} registered scenarios",
    )


def _device_platform(scenario: Scenario):
    """The scenario's device SoC preset, or ``None`` if deviceless."""
    return DEVICES[scenario.device].platform() if scenario.device else None


def run_scenario(
    name: str,
    overrides: dict | None = None,
    use_cache: bool = True,
    cache_capacity: int = 256,
    do_map: bool = False,
    scheduler: str | None = None,
    platform_name: str | None = None,
    admission: str = "warn",
    json_out: bool = False,
    channel: str | None = None,
    loss_rate: float = 0.05,
    fec_group: int = 0,
    mtu: int = 256,
    interleave_depth: int = 1,
    net_seed: int = 0,
    trace_out: str | None = None,
    trace_jsonl: str | None = None,
    metrics_json: str | None = None,
    quiet: bool = False,
    out=None,
):
    """Build, run, and report one scenario; returns the engine report."""
    if out is None:
        out = sys.stdout  # resolved late so capture/redirection works
    scenario: Scenario = REGISTRY.get(name)
    tracer = TraceRecorder() if (trace_out or trace_jsonl) else None
    sessions = scenario.sessions(**(overrides or {}))
    if channel is not None:
        attach_delivery(
            sessions,
            kind=channel,
            loss_rate=loss_rate,
            fec_group=fec_group,
            mtu=mtu,
            interleave_depth=interleave_depth,
            seed=net_seed,
            platform=_device_platform(scenario),
        )
    scheduler_name = scheduler or scenario.default_scheduler
    platform = None
    if platform_name is not None and scheduler_name != "platform":
        raise ValueError(
            f"--platform only applies to the 'platform' scheduler "
            f"(the effective scheduler here is {scheduler_name!r}; "
            f"add --scheduler platform)"
        )
    if platform_name is not None:
        try:
            platform = DEVICES[platform_name].platform()
        except KeyError:
            raise ValueError(
                f"unknown platform device {platform_name!r}; "
                f"available: {sorted(DEVICES)}"
            ) from None
    elif scheduler_name == "platform":
        platform = _device_platform(scenario)
    engine = StreamEngine(
        sessions,
        cache=SegmentCache(capacity=cache_capacity),
        use_cache=use_cache,
        scheduler=make_scheduler(scheduler_name, platform=platform),
        admission=admission,
        trace=tracer,
    )
    report = engine.run()
    map_data = None
    if do_map and scenario.device:
        map_data = _map_measured_sessions(scenario, sessions)

    if tracer is not None:
        metadata = {"scenario": scenario.name, "scheduler": report.scheduler}
        if trace_out:
            write_chrome_trace(trace_out, tracer, metadata)
        if trace_jsonl:
            write_jsonl(trace_jsonl, tracer)
    if metrics_json:
        with open(metrics_json, "w") as fh:
            json.dump(report.metrics.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    if json_out:
        payload = report.to_dict()
        payload["scenario"] = scenario.name
        if do_map:
            # Fold the mapping results into the same JSON object so
            # --json stays a single machine-readable document.
            payload["map"] = None if map_data is None else {
                "device": map_data["device"],
                "platform": map_data["system_report"].platform_name,
                "device_period_s": map_data["system_report"]
                .evaluation.period_s,
                "sessions": [
                    {
                        "name": name_,
                        "kind": kind,
                        "period_s": period_s,
                        "streams_at_15hz": streams,
                    }
                    for name_, kind, period_s, streams
                    in map_data["rows"]
                ],
            }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return report

    if quiet:  # files and the returned report carry everything
        return report
    print(f"scenario: {scenario.name} — {scenario.description}", file=out)
    print(report.render(), file=out)
    if map_data is not None:
        print(file=out)
        print(map_data["system_report"].summary(), file=out)
        if map_data["rows"]:
            print(file=out)
            print(render_table(
                ["session", "kind", "period (ms)", "streams @15Hz"],
                [
                    [name_, kind, f"{period_s * 1e3:.3f}", streams]
                    for name_, kind, period_s, streams in map_data["rows"]
                ],
                title=(
                    f"measured session profiles mapped on "
                    f"{map_data['system_report'].platform_name}"
                ),
            ), file=out)
    elif do_map:
        print(f"(scenario {name!r} has no mappable device)", file=out)
    return report


def _map_measured_sessions(scenario: Scenario, sessions):
    """Map the device graphs and each measured session profile (--map)."""
    device = DEVICES[scenario.device]
    platform = device.platform()
    system = MultimediaSystem(device.name, [device.application()], platform)
    system_report = system.map(algorithm="greedy", iterations=3)
    rows = []
    for session in sessions:
        if not session.frames_done or not session.ops_per_frame():
            continue
        app = measured_application(session, rate_hz=15.0)
        problem = app.problem(platform)
        result = run_mapper(problem, "greedy")
        ev = evaluate_mapping(problem, result.mapping, iterations=3)
        rows.append((
            session.name,
            session.kind,
            ev.period_s,
            sustainable_streams(ev, 15.0),
        ))
    return {"device": device.name, "system_report": system_report,
            "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.run",
        description="Run a registered multi-stream scenario.",
    )
    parser.add_argument("scenario", nargs="?", help="scenario name")
    parser.add_argument(
        "--list", action="store_true", help="list registered scenarios"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared segment cache",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        help="segment cache entries (default 256)",
    )
    parser.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULERS),
        default=None,
        help="virtual-time scheduling policy "
        "(default: the device's runtime contract)",
    )
    parser.add_argument(
        "--platform",
        dest="platform_name",
        default=None,
        metavar="DEVICE",
        help="device whose SoC preset the 'platform' scheduler prices "
        f"(one of {', '.join(sorted(DEVICES))}; "
        "default: the scenario's own device)",
    )
    parser.add_argument(
        "--admission",
        choices=["off", "warn", "strict"],
        default="warn",
        help="start-up schedulability gate on the rated sessions "
        "(default warn)",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="emit the engine report as JSON",
    )
    parser.add_argument(
        "--channel",
        choices=sorted(CHANNEL_KINDS),
        default=None,
        help="carry every coded stream over a seeded lossy channel "
        "(default: perfect in-memory hand-off)",
    )
    parser.add_argument(
        "--loss",
        dest="loss_rate",
        type=float,
        default=0.05,
        help="channel marginal packet-loss rate (default 0.05)",
    )
    parser.add_argument(
        "--fec",
        dest="fec_group",
        type=int,
        default=0,
        help="XOR parity group size, 0 disables FEC (default 0)",
    )
    parser.add_argument(
        "--interleave",
        dest="interleave_depth",
        type=int,
        default=1,
        help="block-interleave depth to spread burst losses (default 1)",
    )
    parser.add_argument(
        "--mtu",
        type=int,
        default=256,
        help="packet payload bytes (default 256)",
    )
    parser.add_argument(
        "--net-seed",
        dest="net_seed",
        type=int,
        default=0,
        help="seed of the channel loss/jitter trace (default 0)",
    )
    parser.add_argument(
        "--map",
        dest="do_map",
        action="store_true",
        help="also map the device's task graphs onto its SoC preset",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        metavar="FILE",
        help="record the run and write a Chrome trace-event JSON "
        "timeline (open in Perfetto)",
    )
    parser.add_argument(
        "--trace-jsonl",
        dest="trace_jsonl",
        default=None,
        metavar="FILE",
        help="record the run and write a flat JSONL event log",
    )
    parser.add_argument(
        "--metrics-json",
        dest="metrics_json",
        default=None,
        metavar="FILE",
        help="dump the run's metric registry as JSON",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human-readable report (file outputs and "
        "--json still happen)",
    )
    args = parser.parse_args(argv)

    if args.channel is None and (
        args.fec_group or args.interleave_depth != 1
        or args.mtu != 256 or args.net_seed or args.loss_rate != 0.05
    ):
        # Tuning flags without a channel would be silently ignored (the
        # built-in lossy scenarios take --set loss=... instead).
        parser.error(
            "--loss/--fec/--interleave/--mtu/--net-seed require --channel"
        )

    if args.list or not args.scenario:
        print(list_scenarios())
        return 0
    try:
        run_scenario(
            args.scenario,
            overrides=_overrides(args.overrides),
            use_cache=not args.no_cache,
            cache_capacity=args.cache_capacity,
            do_map=args.do_map,
            scheduler=args.scheduler,
            platform_name=args.platform_name,
            admission=args.admission,
            json_out=args.json_out,
            channel=args.channel,
            loss_rate=args.loss_rate,
            fec_group=args.fec_group,
            mtu=args.mtu,
            interleave_depth=args.interleave_depth,
            net_seed=args.net_seed,
            trace_out=args.trace_out,
            trace_jsonl=args.trace_jsonl,
            metrics_json=args.metrics_json,
            quiet=args.quiet,
        )
    except AdmissionError as exc:
        print(f"admission rejected:\n{exc}", file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        # Bad scenario name or parameter (unknown key, wrong type like
        # --set cameras=2.5): a usage error, not a crash.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

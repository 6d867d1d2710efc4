"""C2 — Section 2: the five consumer devices as cost/performance/power
points, produced by mapping each device's application mix onto its SoC."""

from repro.core import DEVICES, MultimediaSystem, render_table
from repro.mpsoc import battery_life_hours, duty_cycled_power_mw


def map_all(algorithm: str = "greedy"):
    out = {}
    for name, device in DEVICES.items():
        if not device.paper:
            continue
        application, platform = device.application(), device.platform()
        system = MultimediaSystem(name, [application], platform)
        report = system.map(algorithm=algorithm, iterations=4)
        out[name] = (application, platform, report)
    return out


def test_five_device_cost_perf_power_points(benchmark, show):
    results = benchmark.pedantic(map_all, rounds=1, iterations=1)
    rows = []
    duty_power = {}
    costs = {}
    for name, (application, platform, report) in results.items():
        ev = report.evaluation
        iterations = max(1.0, ev.makespan_s / ev.period_s)
        power = duty_cycled_power_mw(
            platform,
            ev.energy.compute_j / iterations,
            application.required_rate_hz,
        )
        duty_power[name] = power
        costs[name] = ev.platform_cost
        rows.append([
            name,
            ev.platform_cost,
            1.0 / ev.period_s,
            application.required_rate_hz,
            power,
            battery_life_hours(power),
            "yes" if report.all_feasible else "NO",
        ])
    show(render_table(
        ["device", "cost", "max it/s", "needed it/s", "power (mW)",
         "battery (h)", "feasible"],
        rows,
        title="C2: consumer devices cover a broad cost/perf/power range",
    ))

    # Shapes from the paper's device list:
    # - the portable audio player is the cheapest, lowest-power point;
    assert costs["audio_player"] == min(costs.values())
    assert duty_power["audio_player"] == min(duty_power.values())
    # - mains-powered boxes (STB/DVR) sit at the expensive, hungry end;
    assert costs["set_top_box"] > 3.0 * costs["audio_player"]
    assert max(duty_power, key=duty_power.get) in ("set_top_box", "dvr")
    # - battery devices stay well under a watt at their duty cycle;
    assert duty_power["cell_phone"] < 500.0
    assert duty_power["audio_player"] < 100.0
    # - the camera's full-search encode + 100 Hz servo mix does NOT fit its
    #   preset (the provisioning gap the tooling exists to expose).
    feasible = {n for n, (_, _, r) in results.items() if r.all_feasible}
    assert feasible == {"cell_phone", "audio_player", "set_top_box", "dvr"}

"""Workload inputs: the scenarios, seed blocks and CLI commands each workload runs.

Everything here is a pure function of the workload seed, so the same seed
gives the same inputs. The program only ever sees the scenarios, the seed
blocks and the command lines built here.
"""

from fopen_sar.scenario import Scenario, preset_scenario, tank_scenario

DEFAULT_SEED = 0

# Workload seed w owns master seeds [w * SEED_STRIDE, (w + 1) * SEED_STRIDE),
# so runs with different workload seeds never share a pipeline input.
SEED_STRIDE = 100_000

# Seeds per run_metrics call. Every config of a pass gets the same block,
# as in the acceptance table; two seeds give a seed-level parallel loop
# work for both cores of the reference machine while keeping calls short,
# so each run takes several timed samples of every config.
BLOCK = {"table": 2, "tank": 2}

# Nominal seconds per pass (every config once, on one seed block) on the
# reference machine, two shared vCPUs. A run's number of passes is sized
# from --seconds with these rather than by a clock, so the same seed and
# seconds always run the same operations and reach the same outcomes,
# NoPeakError ones included, whatever the machine's speed at the time.
PASS_SECONDS = {"table": 0.95, "tank": 2.5}

# Receiver noise for the tank scene: the value of the README's example
# scenario. No preset turns receiver noise on.
TANK_SNR_DB = 30.0


def table_configs() -> list[Scenario]:
    """Full preset over {ofdm, noise} x {off, HH, VV}: the acceptance table."""
    base = preset_scenario("full")
    return [base.with_overrides(waveform_kind=kind, foliage_pol=pol)
            for kind in ("ofdm", "noise") for pol in ("off", "HH", "VV")]


def tank_configs() -> list[Scenario]:
    """Tank scene over {ofdm, noise} x {off, HH redrawn per pulse}, noisy receiver."""
    base = tank_scenario("full")
    out = []
    for kind in ("ofdm", "noise"):
        for pol in ("off", "HH"):
            doc = base.with_overrides(waveform_kind=kind, foliage_pol=pol).doc
            doc["noise"] = {"snr_db": TANK_SNR_DB}
            if pol == "HH":
                doc["foliage"]["redraw_per_pulse"] = True
            out.append(Scenario(doc))
    return out


def configs(workload: str) -> list[Scenario]:
    return {"table": table_configs, "tank": tank_configs}[workload]()


def n_passes(workload: str, seconds: float, n_modes: int) -> int:
    """Passes that take about `seconds`, the same number at each of n_modes thread counts."""
    return n_modes * max(1, round(seconds / (PASS_SECONDS[workload] * n_modes)))


def seed_block(workload: str, seed: int, pass_index: int) -> list[int]:
    """Master seeds of one pass: consecutive, distinct for every pass and seed."""
    b = BLOCK[workload]
    start = seed * SEED_STRIDE + pass_index * b
    return list(range(start, start + b))


# The CLI workload: fresh processes started one at a time, in this order.
# "{name}" in an argument is replaced by the output directory of the earlier
# command of that name. The sequence has no seed argument: every command
# runs its preset's own seed, so its outputs can be hashed and compared
# across reruns.
CLI_SEQUENCE = (
    ("simulate-small", ["simulate", "--preset", "small"]),
    ("simulate-full", ["simulate", "--preset", "full"]),
    ("image-full", ["image", "--preset", "full", "--raw",
                    "{simulate-full}/ofdm-foliage_off-seed0_raw.fsar"]),
    ("metrics-full", ["metrics", "--preset", "full", "--image",
                      "{image-full}/ofdm-foliage_off-seed0_image.fimg"]),
    ("compare-small", ["compare", "--preset", "small"]),
)


def cli_scenarios() -> list[Scenario]:
    """The scenarios the CLI sequence resolves, for the set-up probe."""
    small, full = preset_scenario("small"), preset_scenario("full")
    return [small, full] + [small.with_overrides(waveform_kind=kind, foliage_pol=pol)
                            for kind in ("ofdm", "noise") for pol in ("off", "HH")]


def resolve(workload: str) -> int:
    """Build every simulation config the workload starts from; returns the count."""
    scens = cli_scenarios() if workload == "cli" else configs(workload)
    for scen in scens:
        scen.simulation_config()
    return len(scens)

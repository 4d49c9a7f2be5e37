"""Command-line front end.

    disacsim simulate   draw a scene, export it and its beamspace tensors
    disacsim estimate   recover multipath parameters from an exported tensor
    disacsim e2e        run a single end-to-end trial
    disacsim montecarlo run a sweep and write results + CSV

Exit status: 0 on success, 2 on a malformed configuration, 1 when
``estimate`` cannot recover paths from a well-formed tensor (an
``estimation: <reason>`` line on stderr).
"""

import argparse
import functools
import json
import logging
import os
import sys

from .estimator import DEFAULT_MAX_RANK, AlsOptions, EstimatedPath, estimate_paths
from .harness import (
    ConfigError,
    ScenarioConfig,
    _integer,
    default_scenario,
    load_config,
    run_montecarlo,
    run_trial,
    write_csv,
    write_results,
    write_scene,
)
from .scene import SceneSamplingError, random_scene
from .waveform import export_tensor, load_tensor

logger = logging.getLogger(__name__)


def _scenario(args) -> ScenarioConfig:
    """--config with --seed, --trials and --mode laid over its top-level keys."""
    flags = {"seed": args.seed, "trials": getattr(args, "trials", None),
             "modes": getattr(args, "mode", None)}
    overrides = {key: value for key, value in flags.items() if value is not None}
    for key, minimum in (("seed", 0), ("trials", 1)):
        if key in overrides:
            overrides[key] = _int_flag(f"--{key}", overrides[key], minimum)
    if args.config:
        return load_config(args.config, **overrides)
    return default_scenario(**overrides)


def _path_to_dict(p: EstimatedPath) -> dict:
    return {
        "gain_re": p.gain.real,
        "gain_im": p.gain.imag,
        "delay_s": p.delay,
        "aoa_az_rad": p.aoa.azimuth,
        "aoa_el_rad": p.aoa.elevation,
        "aod_az_rad": p.aod.azimuth,
        "aod_el_rad": p.aod.elevation,
        "low_confidence": p.low_confidence,
    }


def cmd_simulate(args) -> int:
    config = _scenario(args)
    try:
        scene = random_scene(config.scene, config.seed)
    except (SceneSamplingError, ValueError) as exc:
        # a recipe that cannot be met, or whose draw the scene model
        # refuses (points that coincide): a config fault
        raise ConfigError(f"scene: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    scene_path = os.path.join(args.out_dir, "scene.json")
    write_scene(scene, scene_path)
    written = [scene_path]
    for rx in scene.receivers:
        tensor = config.receiver_tensor(scene, rx.node_id, config.seed)
        prefix = os.path.join(args.out_dir, f"tensor_rx{rx.node_id}")
        written.extend(export_tensor(tensor, prefix))
    for path in written:
        print(path)
    return 0


def _int_flag(flag: str, text, minimum: int) -> int:
    """The integer value of ``flag``, at least ``minimum``, or a ConfigError."""
    try:
        value = int(text)
    except ValueError:
        value = text  # not an integer: the setting rule below names it
    try:
        return _integer(minimum)(value)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def cmd_estimate(args) -> int:
    rank = "auto" if args.rank == "auto" else _int_flag("--rank", args.rank, 0)
    max_rank = _int_flag("--max-rank", args.max_rank, 1)
    opts = AlsOptions(
        seed=_int_flag("--seed", args.seed, 0),
        restarts=_int_flag("--restarts", args.restarts, 1),
    )
    try:
        tensor = load_tensor(args.tensor)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read tensor {args.tensor}: {exc}") from exc
    try:
        paths = estimate_paths(tensor, rank=rank, opts=opts, max_rank=max_rank)
    except (ValueError, RuntimeError) as exc:  # RankDeficiencyError, a degenerate column, ...
        print(f"estimation: {exc}", file=sys.stderr)
        return 1
    doc = {"num_paths": len(paths), "paths": [_path_to_dict(p) for p in paths]}
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_e2e(args) -> int:
    result = run_trial(_scenario(args), 0)
    text = json.dumps(result.canonical_dict(), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_montecarlo(args) -> int:
    config = _scenario(args)
    mc = run_montecarlo(config, progress=True)
    if args.out_json:
        write_results(mc, args.out_json)
    if args.out_csv:
        write_csv(mc, args.out_csv)
    summary = mc.summary()
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of main: parse_args leaves it unchanged, and callers must not
    modify it."""
    parser = argparse.ArgumentParser(
        prog="disacsim",
        description="multistatic sensing simulation and estimation toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, modes=True, trials=False):
        p.add_argument("--config", help="scenario YAML (defaults to the stock scenario)")
        p.add_argument("--seed", help="override the base seed")
        if modes:
            p.add_argument(
                "--mode",
                action="append",
                help="mode to run (disac, disac-ls, isac:<id>[-ls]); repeatable",
            )
        if trials:
            p.add_argument("--trials", help="override the trial count")

    p = sub.add_parser("simulate", help="draw a scene and export its tensors")
    common(p, modes=False)
    p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("estimate", help="estimate paths from an exported tensor")
    p.add_argument("--tensor", required=True, help="tensor file prefix (no extension)")
    p.add_argument("--rank", default="auto", help="model order >= 0, or 'auto'")
    p.add_argument("--max-rank", default=DEFAULT_MAX_RANK, help="cap on the 'auto' order")
    p.add_argument("--restarts", default=AlsOptions.restarts)
    p.add_argument("--seed", default=AlsOptions.seed)
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("e2e", help="run one end-to-end trial")
    common(p)
    p.add_argument("--out", help="write the trial result JSON here")

    p = sub.add_parser("montecarlo", help="run a Monte Carlo sweep")
    common(p, trials=True)
    p.add_argument("--out-json", help="full results JSON path")
    p.add_argument("--out-csv", help="per-entity error CSV path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # looked up on each call, so the cached parser binds no command function
    commands = {"simulate": cmd_simulate, "estimate": cmd_estimate, "e2e": cmd_e2e,
                "montecarlo": cmd_montecarlo}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()

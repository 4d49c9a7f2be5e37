import csv
import json

import pytest
import yaml

from disacsim import cli
from disacsim.cli import main
from disacsim.estimator import AlsOptions
from disacsim.harness import default_scenario
from disacsim.scene import random_scene
from disacsim.waveform import export_tensor, synthesize_tensor

MINI = {
    "schema": "disacsim-config/1",
    "seed": 3,
    "trials": 1,
    "modes": ["disac", "isac:0"],
    "ofdm": {"num_subcarriers": 32, "bandwidth_hz": 50.0e6},
    "arrays": {"bs": {"n_x": 8, "n_y": 8}, "ue": {"n_x": 4, "n_y": 4}},
    "beams": {"bs_az": 4, "bs_el": {"num": 3, "first": -3}, "ue_az": 4, "ue_el": 4},
    "scene": {
        "num_receivers": 2,
        "num_targets": 1,
        "scatter_points_per_target": 2,
        "num_clutter": 1,
        "target_extent_m": 0.4,
    },
    "estimation": {"max_rank": 8, "restarts": 2},
}


def write_config(tmp_path, **patch):
    raw = json.loads(json.dumps(MINI))
    raw.update(patch)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_e2e_writes_trial_json(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "trial.json"
    rc = main(["e2e", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc["outcomes"]) == {"disac", "isac:0"}
    assert doc["trial"] == 0 and doc["seed"] == 3


def test_missing_config_is_a_config_error(tmp_path, capsys):
    rc = main(["e2e", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_wrong_schema_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: disacsim-config/9\n")
    rc = main(["e2e", "--config", str(path)])
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def test_missing_tensor_is_a_config_error(tmp_path, capsys):
    rc = main(["estimate", "--tensor", str(tmp_path / "nope"), "--rank", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read tensor")


def test_bad_mode_flag(capsys):
    rc = main(["e2e", "--mode", "radar"])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["e2e", "--seed", "-1"], ["montecarlo", "--trials", "0"], ["e2e", "--mode", "isac:9"]],
)
def test_out_of_range_flag_is_a_config_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_non_numeric_setting_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, estimation={"max_rank": "many"})
    assert main(["e2e", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "estimation.max_rank" in err


def test_simulate_then_estimate(tmp_path, capsys):
    cfg = write_config(tmp_path, scene={**MINI["scene"], "num_receivers": 1})
    out_dir = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    written = capsys.readouterr().out.strip().splitlines()
    assert str(out_dir / "scene.json") in written
    assert (out_dir / "scene.json").exists()
    prefix = out_dir / "tensor_rx0"
    assert any(str(prefix) in line for line in written)

    est_out = tmp_path / "paths.json"
    rc = main([
        "estimate", "--tensor", str(prefix), "--rank", "1",
        "--restarts", "1", "--out", str(est_out),
    ])
    assert rc == 0
    doc = json.loads(est_out.read_text())
    assert doc["num_paths"] == 1 and len(doc["paths"]) == 1
    path = doc["paths"][0]
    assert {"gain_re", "delay_s", "aoa_az_rad", "low_confidence"} <= set(path)


def test_montecarlo_two_modes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_json = tmp_path / "mc.json"
    out_csv = tmp_path / "mc.csv"
    rc = main([
        "montecarlo", "--config", cfg,
        "--out-json", str(out_json), "--out-csv", str(out_csv),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"disac", "isac:0"}
    assert all("ue_error_median_m" in s for s in summary.values())

    doc = json.loads(out_json.read_text())
    assert doc["modes"] == ["disac", "isac:0"]
    assert len(doc["trials"]) == 1
    assert doc["config"]["seed"] == 3 and doc["trials"][0]["seed"] == 3
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "trial"
    assert len(rows) > 1


def test_montecarlo_records_the_flags_that_ran(tmp_path, capsys):
    cfg = write_config(tmp_path, estimation={"max_rank": 2, "restarts": 1, "max_sweeps": 3})
    out_json = tmp_path / "mc.json"
    rc = main([
        "montecarlo", "--config", cfg, "--seed", "11", "--mode", "disac",
        "--out-json", str(out_json),
    ])
    assert rc == 0
    doc = json.loads(out_json.read_text())
    assert doc["config"]["seed"] == 11 and doc["config"]["modes"] == ["disac"]
    assert doc["trials"][0]["seed"] == 11 and doc["modes"] == ["disac"]


def test_montecarlo_rejects_unknown_receiver(tmp_path, capsys):
    cfg = write_config(tmp_path, modes=["isac:9"])
    rc = main(["montecarlo", "--config", cfg])
    assert rc == 2
    assert "isac:9" in capsys.readouterr().err


def small_tensor(tmp_path) -> str:
    """Export one receiver's tensor of the MINI scenario; returns the file prefix."""
    raw = {k: v for k, v in MINI.items() if k != "schema"}
    config = default_scenario(**raw)
    scene = random_scene(config.scene, config.seed)
    tensor = synthesize_tensor(scene, 0, config.books, config.ofdm, noise_seed=1)
    prefix = str(tmp_path / "rx0")
    export_tensor(tensor, prefix)
    return prefix


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--rank", "abc"], "--rank"),
        (["--rank", "-1"], "--rank"),
        (["--rank", "1.5"], "--rank"),
        (["--max-rank", "-3"], "--max-rank"),
        (["--max-rank", "0"], "--max-rank"),
        (["--max-rank", "many"], "--max-rank"),
        (["--seed", "-1"], "--seed"),
        (["--seed", "x"], "--seed"),
        (["--restarts", "0"], "--restarts"),
    ],
)
def test_estimate_rejects_bad_flags(tmp_path, capsys, flags, named):
    prefix = small_tensor(tmp_path)
    assert main(["estimate", "--tensor", prefix, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


def test_integer_flags_and_settings_share_one_message(tmp_path, capsys):
    missing = str(tmp_path / "none")  # flags are checked before the tensor is read
    assert main(["estimate", "--tensor", missing, "--seed", "x"]) == 2
    assert capsys.readouterr().err == "config error: --seed: expected an integer >= 0, got 'x'\n"
    assert main(["estimate", "--tensor", missing, "--restarts", "0"]) == 2
    assert capsys.readouterr().err == "config error: --restarts: expected an integer >= 1, got 0\n"
    # the scenario commands convert --seed and --trials by the same rule
    for argv, message in [
        (["e2e", "--seed", "abc"], "--seed: expected an integer >= 0, got 'abc'"),
        (["montecarlo", "--seed", "-1"], "--seed: expected an integer >= 0, got -1"),
        (["simulate", "--seed", "1.5"], "--seed: expected an integer >= 0, got '1.5'"),
        (["montecarlo", "--trials", "0"], "--trials: expected an integer >= 1, got 0"),
        (["montecarlo", "--trials", "two"], "--trials: expected an integer >= 1, got 'two'"),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_simulate_refuses_a_scene_it_cannot_place(tmp_path, capsys):
    scene = {**MINI["scene"], "min_separation_m": 1000}
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, scene=scene),
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error: scene: could not place receiver ")
    assert not out_dir.exists()


def test_simulate_refuses_receivers_that_could_sit_underground(tmp_path, capsys):
    scene = {**MINI["scene"], "ue_box": [[15, 25], [-8, 8], [-1, -0.5]]}
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, scene=scene),
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "config error: scene: ue_box z range must lie above ground (z > 0), got [-1.0, -0.5]\n"
    )
    assert not out_dir.exists()


SPOT = [[20.0, 20.0], [0.0, 0.0], [1.5, 1.5]]


@pytest.mark.parametrize("scene, message", [
    # the clutter candidate sits on the receiver, whose direction to it is zero
    ({"num_receivers": 1, "num_targets": 0, "num_clutter": 1, "min_separation_m": 0,
      "ue_box": SPOT, "clutter_box": SPOT}, "zero direction vector"),
    # a negative separation lets both receivers share the point box
    ({"num_receivers": 2, "num_targets": 0, "num_clutter": 0, "min_separation_m": -1,
      "ue_box": SPOT}, "node/target positions must be distinct"),
], ids=["clutter-on-receiver", "receivers-coincide"])
def test_simulate_refuses_a_scene_the_model_refuses(tmp_path, capsys, scene, message):
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, scene=scene),
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"config error: scene: {message}\n"
    assert not out_dir.exists()


def test_estimate_rank_zero_returns_no_paths(tmp_path, capsys):
    prefix = small_tensor(tmp_path)
    assert main(["estimate", "--tensor", prefix, "--rank", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"num_paths": 0, "paths": []}


def test_estimate_rejects_a_truncated_tensor(tmp_path, capsys):
    prefix = small_tensor(tmp_path)
    with open(prefix + ".bin", "r+b") as fh:
        fh.truncate(8)
    assert main(["estimate", "--tensor", prefix]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read tensor")


def test_estimate_reports_an_estimation_failure(tmp_path, capsys):
    config = default_scenario()
    scene = random_scene(config.scene, config.seed)
    tensor = synthesize_tensor(scene, 0, config.books, config.ofdm, noise_seed=1)
    tensor.data[...] = 0.0
    prefix = str(tmp_path / "zero")
    export_tensor(tensor, prefix)
    assert main(["estimate", "--tensor", prefix, "--rank", "2", "--restarts", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "estimation: degenerate subcarrier column (no phase progression)\n"
    assert captured.out == ""


def test_estimate_defaults_to_the_stock_als_options(monkeypatch, capsys):
    seen = {}

    def fake_estimate(tensor, rank, opts, max_rank):
        seen.update(rank=rank, opts=opts, max_rank=max_rank)
        return []

    monkeypatch.setattr(cli, "load_tensor", lambda prefix: object())
    monkeypatch.setattr(cli, "estimate_paths", fake_estimate)
    assert main(["estimate", "--tensor", "t"]) == 0
    opts = seen["opts"]
    assert opts.restarts == AlsOptions().restarts
    assert opts.max_sweeps == AlsOptions().max_sweeps
    assert opts == AlsOptions(seed=0)
    assert seen["rank"] == "auto"


def test_main_runs_subcommands_one_after_another_with_independent_flags(monkeypatch, capsys):
    seen = []

    class Trial:
        def canonical_dict(self):
            return {}

    def fake_estimate(tensor, rank, opts, max_rank):
        seen.append(("estimate", tensor, rank, opts.seed, opts.restarts))
        return []

    def fake_trial(config, trial):
        seen.append(("e2e", [mode.name for mode in config.modes], config.seed))
        return Trial()

    monkeypatch.setattr(cli, "load_tensor", lambda prefix: prefix)
    monkeypatch.setattr(cli, "estimate_paths", fake_estimate)
    monkeypatch.setattr(cli, "run_trial", fake_trial)
    runs = [
        ["estimate", "--tensor", "a", "--rank", "3", "--seed", "5", "--restarts", "2"],
        ["e2e", "--mode", "isac:1", "--mode", "disac-ls", "--seed", "4"],
        ["e2e", "--mode", "isac:0"],
        ["estimate", "--tensor", "b"],
    ]
    assert [main(argv) for argv in runs] == [0, 0, 0, 0]
    stock_seed = default_scenario().seed
    assert seen == [
        ("estimate", "a", 3, 5, 2),
        ("e2e", ["isac:1", "disac-ls"], 4),
        ("e2e", ["isac:0"], stock_seed),  # no mode or seed left over from the run before
        ("estimate", "b", "auto", AlsOptions().seed, AlsOptions().restarts),
    ]
    assert cli.build_parser() is cli.build_parser()
    # the shared parser does not pin the command functions of its first use
    monkeypatch.setattr(cli, "cmd_e2e", lambda args: seen.append(("patched", args.seed)) or 0)
    assert main(["e2e", "--seed", "6"]) == 0
    assert seen[-1] == ("patched", "6")


def edit_header(prefix: str, edit) -> None:
    with open(prefix + ".json") as fh:
        header = json.load(fh)
    edit(header)
    with open(prefix + ".json", "w") as fh:
        json.dump(header, fh)


def test_estimate_rejects_a_header_without_a_key(tmp_path, capsys):
    prefix = small_tensor(tmp_path)
    edit_header(prefix, lambda header: header["ofdm"].pop("tx_power_dbm"))
    assert main(["estimate", "--tensor", prefix]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read tensor") and "'tx_power_dbm'" in err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda header: header.update(ofdm=5), "'ofdm'"),
        (lambda header: header.update(noise_var="x"), "'noise_var'"),
        (lambda header: header["codebooks"]["rx_az"].update(beam_indices=5), "'beam_indices'"),
        (lambda header: header["rx_geom"].update(n_x="4"), "'rx_geom'"),
        (lambda header: header["rx_geom"].update(rows=4), "'rx_geom'"),
        # JSON's NaN and Infinity are numbers, but no header value may be one
        (lambda header: header["ofdm"].update(subcarrier_spacing=float("nan")),
         "'subcarrier_spacing'"),
        (lambda header: header["rx_geom"].update(spacing=float("nan")), "'rx_geom'"),
        (lambda header: header["rx_geom"].update(n_x=True), "'rx_geom'"),
        (lambda header: header.update(noise_var=float("inf")), "'noise_var'"),
    ],
    ids=["ofdm", "noise_var", "beam_indices", "rx_geom", "rx_geom_extra_key",
         "ofdm_nan", "rx_geom_nan", "rx_geom_bool", "noise_var_inf"],
)
def test_estimate_rejects_a_header_value_of_the_wrong_type(tmp_path, capsys, edit, key):
    prefix = small_tensor(tmp_path)
    edit_header(prefix, edit)
    assert main(["estimate", "--tensor", prefix]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read tensor") and key in err


@pytest.mark.parametrize("shape", ["abc", [8, "8", 4, 4, 32], [0, 4, 3, 4, 32]])
def test_estimate_rejects_a_header_shape_that_is_not_sizes(tmp_path, capsys, shape):
    prefix = small_tensor(tmp_path)
    edit_header(prefix, lambda header: header.update(shape=shape))
    assert main(["estimate", "--tensor", prefix]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read tensor") and "shape" in err

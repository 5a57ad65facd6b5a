"""Config validation, experiment outputs, determinism, and the CLI surface."""

import json

import pytest

import gpumux.cli as cli
from gpumux.audits import InvariantViolation
from gpumux.harness import (ConfigError, cmd_datagen, cmd_graftbench, cmd_rl,
                            cmd_trace, parse_config)

GOOD = """
# small but complete experiment
[device]
quantum = 0.1
ring_capacity = 64

[costs]
preset = StackCube
render_per_env = 0.007

[workload]
env = StackCube
steps = 6
batches = 16 32
groups = 2

[graftbench]
buffer_counts = 4 16 64
"""


def write_config(tmp_path, text=GOOD, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ----------------------------------------------------------------------
# config parsing

def test_parse_good_config(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.device.quantum == 0.1
    assert cfg.device.ring_capacity == 64
    assert cfg.costs.render_per_env == 0.007      # explicit override wins
    assert cfg.costs.sim_base == 0.9              # preset value kept
    assert cfg.batches == [16, 32]
    assert cfg.buffer_counts == [4, 16, 64]


def test_unknown_key_reports_line(tmp_path):
    bad = GOOD.replace("ring_capacity = 64", "ring_capcity = 64")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, bad))
    assert "ring_capcity" in str(exc.value)
    assert "line" in str(exc.value)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, GOOD + "\n[plotting]\nstyle = dark\n"))
    assert "plotting" in str(exc.value)


def test_bad_value_reports_line(tmp_path):
    bad = GOOD.replace("quantum = 0.1", "quantum = fast")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, bad))
    assert "quantum" in str(exc.value)


def test_invalid_device_values_rejected(tmp_path):
    bad = GOOD.replace("quantum = 0.1", "quantum = -1.0")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))


def test_unknown_preset_rejected(tmp_path):
    bad = GOOD.replace("preset = StackCube", "preset = WarpDrive")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, bad))
    assert "WarpDrive" in str(exc.value)


def test_groups_must_divide_batches(tmp_path):
    bad = GOOD.replace("batches = 16 32", "batches = 16 33")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))


def test_hex_bases_accepted(tmp_path):
    text = GOOD + "\n[device]\nhigh_base = 0x700000000000\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.device.high_base == 0x700000000000


# ----------------------------------------------------------------------
# commands and outputs

def test_datagen_outputs_and_speedups(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    rows = cmd_datagen(cfg, out, json_events=True)
    assert (out / "summary.csv").exists()
    assert (out / "utilization.jsonl").exists()
    assert (out / "events.jsonl").exists()
    assert len(rows) == 4  # 2 batches x 2 modes
    for row in rows:
        if row["mode"] == "pipelined":
            assert row["speedup_vs_sequential"] > 1.0


def test_summary_recomputable_from_event_log(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    rows = cmd_datagen(cfg, out, json_events=True)
    by_run = {}
    for line in (out / "events.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if "meta" in rec:
            continue
        by_run.setdefault(rec["run"], []).append(rec)
    for row in rows:
        run = f"B{row['B']}/{row['mode']}"
        makespan = max(ev["time"] for ev in by_run[run])
        assert makespan == pytest.approx(row["makespan"])
        assert row["throughput"] == pytest.approx(row["K"] * row["B"] / makespan)


def test_outputs_byte_identical_across_reruns(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_datagen(cfg, out_a, json_events=True)
    cmd_datagen(cfg, out_b, json_events=True)
    for name in ("summary.csv", "utilization.jsonl", "events.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_rl_outputs(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    rows = cmd_rl(cfg, tmp_path / "out")
    assert len(rows) == 4
    assert {row["mode"] for row in rows} == {"sequential", "interleaved"}


def test_graftbench_costs(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    rows = cmd_graftbench(cfg, tmp_path / "out", dump_tables=True)
    assert [r["export_import_ops"] for r in rows] == [8, 32, 128]
    graft = [r["graft_ops"] for r in rows]
    assert graft == sorted(graft)  # monotone
    assert (tmp_path / "out" / "tables.json").exists()


def test_trace_requires_utilization_gain(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    rows = cmd_trace(cfg, tmp_path / "out")
    means = {r["mode"]: r for r in rows}
    assert means["pipelined"]["makespan"] < means["sequential"]["makespan"]
    utils = [json.loads(l) for l in
             (tmp_path / "out" / "utilization.jsonl").read_text().splitlines()]
    assert utils and all("compute_util" in u for u in utils)


def test_trace_empty_workload_zeroes(tmp_path):
    text = GOOD.replace("steps = 6", "steps = 0")
    cfg = parse_config(write_config(tmp_path, text))
    rows = cmd_trace(cfg, tmp_path / "out")
    assert all(r["makespan"] == 0.0 for r in rows)
    assert (tmp_path / "out" / "utilization.jsonl").read_text() == ""


# ----------------------------------------------------------------------
# CLI surface

def test_cli_success_exit_code(tmp_path):
    path = write_config(tmp_path)
    rc = cli.main(["graftbench", "--config", str(path), "--out",
                   str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, GOOD.replace("steps = 6", "steps = maybe"))
    rc = cli.main(["datagen", "--config", str(path), "--out",
                   str(tmp_path / "out")])
    assert rc == 2


def test_cli_quantum_below_one_tick_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, GOOD.replace("quantum = 0.1", "quantum = 1e-10"))
    assert cli.main(["datagen", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    assert "quantum" in capsys.readouterr().err


@pytest.mark.parametrize("groups, rc", [(8, 2), (3, 0)])
def test_cli_rl_ring_too_small_for_the_groups_exits_2(tmp_path, capsys, groups, rc):
    text = GOOD.replace("ring_capacity = 64", "ring_capacity = 4").replace(
        "batches = 16 32", "batches = 24").replace("groups = 2", f"groups = {groups}")
    out = tmp_path / "out"
    assert cli.main(["rl", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == rc
    assert (out / "summary.csv").exists() == (rc == 0)
    if rc:
        assert "ring_capacity" in capsys.readouterr().err


def test_cli_invariant_violation_exit_code(tmp_path, monkeypatch):
    def broken(cfg, out, seed=0, json_events=False, dump_tables=False):
        raise InvariantViolation("engineered failure")

    monkeypatch.setitem(cli._COMMANDS, "trace", (broken, "broken"))
    rc = cli.main(["trace", "--config", str(write_config(tmp_path)), "--out",
                   str(tmp_path / "out")])
    assert rc == 3


def test_cli_seed_changes_only_metadata(tmp_path):
    path = write_config(tmp_path)
    cli.main(["graftbench", "--config", str(path), "--out", str(tmp_path / "s0"),
              "--seed", "0", "--json-events"])
    cli.main(["graftbench", "--config", str(path), "--out", str(tmp_path / "s1"),
              "--seed", "1", "--json-events"])
    assert (tmp_path / "s0" / "summary.csv").read_bytes() == \
        (tmp_path / "s1" / "summary.csv").read_bytes()

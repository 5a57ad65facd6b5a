"""Self-test of the benchmark at tiny sizes.

Every metric listed in BENCHMARK.json is printed with its unit, and a
tampered output fails the correctness gate and counts as failed.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def keep_gpumux_modules():
    """The benchmark re-imports gpumux; give the rest of the suite back the
    modules it imported."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "gpumux"}
    yield
    for name in [k for k in sys.modules if k.split(".")[0] == "gpumux"]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace)], sizes=suite.TINY)
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(info["meta"]) == {"python", "platform", "nproc", "commit", "dirty", "seed"}
    assert len(info["digest"]) == 64


def _tamper_csv(path: Path, row: int, column: str, edit):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = edit(cells[i])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,column", [("datagen_long", "makespan"),
                                             ("rl_wide", "throughput"),
                                             ("vm_graft", "export_import_ops")])
def test_tampered_summary_row_fails_the_gate(workload, column, tmp_path):
    gm = run.import_gpumux(run.ROOT / "src")
    wl = suite.WORKLOADS[workload](gm, 7, suite.TINY, tmp_path / "inputs")
    out = tmp_path / "out"
    good = wl.iterate(out)
    assert good.failed == 0 and not good.errors

    _tamper_csv(out / "summary.csv", 1, column,
                lambda v: str(int(v) * 2) if v.isdigit() else repr(float(v) * 2))
    if workload == "vm_graft":
        failed, _, errors = wl.check_graftbench(out)
    else:
        _, failed, _, errors = wl.check(out)
    assert failed == 1 and errors


def test_log_log_slope_recovers_the_exponent():
    xs = [8, 16, 32, 64]
    assert suite.log_log_slope(xs, [3 * x ** 1.5 for x in xs]) == pytest.approx(1.5)

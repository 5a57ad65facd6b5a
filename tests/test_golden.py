"""Golden outputs: SHA-256 digests of every file the four CLI commands write.

The digests were taken when simulated time became whole nanoseconds, after a
differential against the float clock showed the same events with times within
1e-7 s (graftbench runs no engine and kept its earlier digests). Any change to
wake order, timing or output formatting shows up here; the byte-identical
rerun tests elsewhere compare two runs of the same code and cannot catch that.

To inspect a mismatch, run the case by hand, e.g.
``gpumux rl --config cfg.ini --out out --json-events`` with the config text
below, and diff against a checkout of the earlier engine. To print every
case's digests in the layout of ``GOLDEN``, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

import gpumux.cli as cli

_DEVICE = """
[device]
quantum = 0.1
ring_capacity = 64
"""

CASES = {
    # pipelined streams bound to a forwarding channel, several batches
    "datagen": ("datagen", _DEVICE + """
[costs]
preset = StackCube
render_per_env = 0.007

[workload]
env = StackCube
steps = 12
batches = 16 64 256
"""),
    # few groups, short quantum: timer cuts inside windows
    "rl_g2": ("rl", _DEVICE + """
[costs]
preset = PickCube

[workload]
env = PickCube
steps = 8
batches = 32 512
groups = 2
"""),
    # many groups waiting on one stream semaphore, with switch penalties
    "rl_g16": ("rl", """
[device]
quantum = 0.25
context_switch_penalty = 0.01

[costs]
preset = StackCube

[workload]
env = StackCube
steps = 6
batches = 32 4096
groups = 16
"""),
    # zero-latency inference: deadlines that already hold when yielded
    "rl_g16_zero_infer": ("rl", _DEVICE + """
[costs]
preset = AntRun
inference_base = 0
inference_per_env = 0

[workload]
env = AntRun
steps = 5
batches = 64
groups = 16
"""),
    "trace": ("trace", _DEVICE + """
[costs]
preset = HumanoidRun

[workload]
env = HumanoidRun
steps = 20
batches = 128
"""),
    "graftbench": ("graftbench", """
[graftbench]
buffer_counts = 1 4 16 64 300
"""),
}

GOLDEN = {
    "datagen": {
        "events.jsonl":
            "7e8c2a4d0e767308ca18188a2033dadc2d186b36b182508b3f47d22eb9623397",
        "summary.csv":
            "d30ebd2cac5b1528ab9399207b8402927c1be1acb83024876470b6ae6af83137",
        "utilization.jsonl":
            "f9b5f1c1442762b61459e7dbad74828187af5193c0feb492cebf0d89acfa656c",
    },
    "graftbench": {
        "events.jsonl":
            "4550800813fa3fca158ce777ae0281b29d36b9fe820b3208a29b5c6876bc44c7",
        "summary.csv":
            "8d9fd8f051169d45b3d6c553708355082fa6331f60c5b4a6fcc756674df07698",
        "tables.json":
            "149ff9fbb0b262cf86ddb65ce8b3cead464291120c46caf59e1610293e6c6552",
        "utilization.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "rl_g16": {
        "events.jsonl":
            "662c2f58eac30b8b56f6204569310b851f5d78ef89a26d86ce57b9e18f4737fc",
        "summary.csv":
            "2e3071a2ee175a4eba1c9b24ab1a6b641b216b0bd58c1b00a2e8ffd4976e8598",
        "utilization.jsonl":
            "fd2024f14e49caa7d00aa5799f31192d1deabecba39a8ad702fd08060aa85fb8",
    },
    "rl_g16_zero_infer": {
        "events.jsonl":
            "6eeb8461f34e8eaa008351a9c614e86d72caba4c4b03fa8e0aba6198ce56a421",
        "summary.csv":
            "cb88abb63259fef35f86f8cee765d3c05f18f6f2fb90f48bd9a671717622170e",
        "utilization.jsonl":
            "30eb38da1b78ea9cd9537f89c062f5ca9d4e9c311f0dc7daf740849b46003479",
    },
    "rl_g2": {
        "events.jsonl":
            "3756794f340927fc0283d19710d484edbadb3dc2daa653f41d8ec348ba1c2804",
        "summary.csv":
            "350f46882c6b8efb3c602c759cf208d45fe12219f9119838d9680a9502ef9cb7",
        "utilization.jsonl":
            "8571ca950bed29140b91e2066a7544b9b788d0ab96c0ca42d6e14d5785028c55",
    },
    "trace": {
        "events.jsonl":
            "5180321abb06e6d32746c1e152d667c0e64eb7fc00b4f596969f6e0bc30c94d6",
        "summary.csv":
            "926176e68f0d28032a2774f46f23dd882b5be064a3fedd2199209908ac65b801",
        "utilization.jsonl":
            "64d3e68916560dd30a6f65f3ea5ce20b7a81f9bdca42cec5a84957fcfa4266ef",
    },
}


def run_case(name: str, tmp_path) -> dict[str, str]:
    command, text = CASES[name]
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text)
    out = tmp_path / name
    argv = [command, "--config", str(cfg), "--out", str(out), "--seed", "3",
            "--json-events"]
    if command == "graftbench":
        argv.append("--dump-tables")
    assert cli.main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f'    "{case}": {{')
            for file, digest in run_case(case, Path(tmp)).items():
                print(f'        "{file}":\n            "{digest}",')
            print("    },")

"""Golden outputs: SHA-256 digests of every file the four CLI commands write.

The digests were taken from the polling engine that predates the event-driven
wake-up core, so any change to wake order, timing or output formatting shows
up here. The byte-identical rerun tests elsewhere compare two runs of the
same code and cannot catch that.

To inspect a mismatch, run the case by hand, e.g.
``gpumux rl --config cfg.ini --out out --json-events`` with the config text
below, and diff against a checkout of the earlier engine.
"""

import hashlib

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
            "007038bf0fed7ad6000012ee53f1827f3fe56c893a379397f50eb4a3c9300a87",
        "summary.csv":
            "cb07c9246ff543e45371538e15fd4327ee86c4602186031115ba7b9c27a824f7",
        "utilization.jsonl":
            "65e7e1173e728eb9b0af2fab3e5ab6a86cbd5f02caa7e2002eaf12ec56fbab90",
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
            "ec64e44e556471a2f242483d5a71559beda468bf11cf420568359044920b16cd",
        "summary.csv":
            "afd0c843893cc04faaab25a84f1fdc977ba33fde5b0cccbffc5d12803817ee29",
        "utilization.jsonl":
            "b1ef923f94babc4cd2a45d6e85bb0d5c202db582e4c85ecf29278f2be69be854",
    },
    "rl_g16_zero_infer": {
        "events.jsonl":
            "8277f2a3b72cc42c44f6e4a2210c0668a823cc8188babf88a6c809cfd6ed905b",
        "summary.csv":
            "1567517a597f727e6eb987d02fddd123434616757516cf31f5226e670c2115d9",
        "utilization.jsonl":
            "c7c6153f369ddf125c475bda784cb1b13473f535ffcda7cb2ccf96d65d8071d2",
    },
    "rl_g2": {
        "events.jsonl":
            "1d6486049f10a74308363073a85031fe8832b6d61ba23e4cc0b5e752b1e1360d",
        "summary.csv":
            "7d6d3f1b1bf8cdb251317bd841c4f4851300f3a0bc1ecdb45b27bad1ad2abbb7",
        "utilization.jsonl":
            "c37302db6221af045a04e49eb6c58e0c920798e1c20ad8461efc563fa27fa53f",
    },
    "trace": {
        "events.jsonl":
            "cc363647d4ba0a0913abdf2a2bde524e6ed3a9dbf6ed62241289197fd24d128a",
        "summary.csv":
            "27e45e1a9dd85ee8ac6dfe2dc81111d014344be014d4cdd9cd6db8f7cefeade3",
        "utilization.jsonl":
            "d5563e0cdb7fa679849c14ff128a81d94a46d42969dea02cd93e3b74b8c4d523",
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

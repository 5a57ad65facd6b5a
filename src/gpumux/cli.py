"""Command-line entry point.

Exit codes: 0 success, 2 config error (including a ``--config`` path that
cannot be read, such as a missing file or a directory, ``rl``'s
``[workload] groups`` not dividing a batch, a submission ring too small for
the workload and a VA window too small for what the command maps, such as
``graftbench``'s largest buffer count, both only found while the command
runs) or an ``--out`` that cannot be written (such as the path of an
existing file, or one holding a directory named like an output, found before
the first run), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .audits import InvariantViolation
from .channels import RingFull
from .harness import ConfigError, cmd_datagen, cmd_graftbench, cmd_rl, cmd_trace, parse_config
from .vm import AddressSpaceExhausted

_COMMANDS = {
    "datagen": (cmd_datagen, "sequential vs pipelined data generation sweep"),
    "rl": (cmd_rl, "sequential vs interleaved rollout sweep"),
    "graftbench": (cmd_graftbench, "graft vs export/import op-count scaling"),
    "trace": (cmd_trace, "paired utilization traces for one workload"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpumux",
        description="Deterministic GPU scheduling and memory-sharing simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json-events", action="store_true",
                        help="also write events.jsonl")
        if name == "graftbench":
            sp.add_argument("--dump-tables", action="store_true",
                            help="dump final page tables as JSON")
    args = vars(parser.parse_args(argv))   # the rest are keywords of the command
    command = _COMMANDS[args.pop("command")][0]
    try:
        command(parse_config(args.pop("config")), Path(args.pop("out")), **args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # parse_config raises only ConfigError: this is writing --out
        print(f"cannot write outputs to --out: {exc}", file=sys.stderr)
        return 2
    except RingFull as exc:
        print(f"config error: {exc}; raise ring_capacity in [device]", file=sys.stderr)
        return 2
    except AddressSpaceExhausted as exc:
        print(f"config error: {exc}; widen that window in [device] (compute context i gets "
              "the i-th window from high_base, graftbench's source high_base to 2**va_width, "
              "graphics spaces low_base to high_base)", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The contract corpus: digests of the simulator's canonical outputs.

Each entry renders one output field by field and hashes the rendering
with sha256; ``digests.json`` holds the committed digests and
``test_contract.py`` recomputes and compares them.  The entries:

* ``fleet-steady/<seed>/<i>`` and ``shard-sparse-preempt/<seed>/<i>`` —
  the report of perfbench's serving operation ``i`` at that seed, every
  field (replica reports and plan-cache statistics included);
* ``compile-grid/<seed>/<i>`` — perfbench's compile operation ``i``: the
  engine report without its host-timed ``overhead``, plus every chain's
  nodes, scheme, template classes, segment names and params;
* ``cli/<command>`` — the stdout of a serving command that CI runs, and
  ``repro plan-cache --num-requests 4`` without its host-timed lines;
* ``cli/options`` — every subcommand's options as argparse holds them:
  option strings, action class, default, type, choices, nargs, const,
  metavar and required flag, help text left out.

The workloads are perfbench's own (``perfbench/workloads.py``, imported
read-only), so the digests cover exactly what the benchmark times.  The
rendering is the same on every supported Python: floats by their bits,
numpy scalars as Python values, sets sorted, and any other object is an
error rather than a ``repr`` that could carry an address.

A change that means to move a number regenerates the digests, from the
repository root, and explains the diff in CHANGES.md::

    PYTHONPATH=src python -m tests.contract.corpus --write

Without ``--write`` the command lists the entries whose digest differs.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import hashlib
import importlib.util
import io
import json
import shlex
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")
SEEDS = (1, 2, 101)

#: The serving commands of .github/workflows/ci.yml, as argv strings.
CLI_COMMANDS = (
    "shard-sim --tp 2 --dp 2 --num-requests 8 --rate 2000",
    "shard-sim --tp 2 --pp 2 --micro-batches 8 --link pcie --num-requests 8 --rate 2000",
    "shard-sim --tp 4 --link pcie --no-overlap --num-requests 8 --rate 2000",
    "fleet-sim --scenario diurnal --num-requests 16 --rate 3000 --max-replicas 2 "
    "--layers 2 --heads 4 --head-size 16 --frontier",
    "serve-sim --policy continuous --num-requests 8 --rate 500 --spec-decode 4 "
    "--chunk-tokens 64 --lora-adapters 3",
    "serve-sim --policy continuous --num-requests 8 --rate 2000 --prompt-min 64 "
    "--prompt-max 4096 --symbolic-plan-keys",
    "plan-cache --num-requests 4",
)
#: Lines of ``repro plan-cache`` that carry host wall-clock: the two
#: timed runs and the speedup derived from them.
HOST_TIMED = ("wall-clock", "speedup")


def render(obj: Any, skip: frozenset[str] = frozenset()) -> Any:
    """``obj`` as nested tuples of str/int/bool/None, floats by their bits;
    dataclass fields and dict keys named in ``skip`` are dropped at any
    depth."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, render(getattr(obj, f.name), skip))
            for f in fields(obj)
            if f.name not in skip
        )
    if isinstance(obj, dict):
        return tuple(
            (k, render(v, skip)) for k, v in sorted(obj.items()) if k not in skip
        )
    if isinstance(obj, (list, tuple)):
        return tuple(render(v, skip) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted((render(v, skip) for v in obj), key=repr))
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, type):
        return obj.__name__
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"no canonical rendering for {type(obj).__name__}")


def digest(obj: Any, skip: frozenset[str] = frozenset()) -> str:
    return hashlib.sha256(repr(render(obj, skip)).encode()).hexdigest()


def _workloads():
    """perfbench's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chain_plans(prepared) -> list:
    return [
        (
            cp.chain.node_names,
            cp.scheme,
            [type(t) for t in cp.templates],
            [t.segment.node_names for t in cp.templates],
            cp.params,
        )
        for cp in prepared.chains
    ]


def _perfbench_group(name: str, seed: int) -> dict[str, str]:
    workload = _workloads().WORKLOADS[name](seed)
    workload.setup()
    out = {}
    for i in range(workload.n_inputs):
        result = workload.op(i)
        if name == "compile-grid":
            result = (
                render(result.report, frozenset({"overhead"})),
                _chain_plans(result.prepared),
            )
        out[f"{name}/{seed}/{i}"] = digest(result)
    return out


def cli_stdout(command: str) -> str:
    """Stdout of ``repro <command>`` run in-process, host-timed lines
    dropped."""
    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(command))
    if code != 0:
        raise RuntimeError(f"repro {command} exited {code}")
    return "".join(
        line
        for line in buf.getvalue().splitlines(keepends=True)
        if not any(word in line for word in HOST_TIMED)
    )


def option_table() -> dict[str, list]:
    """Each ``repro`` subcommand's actions sorted by ``dest``, every
    field that decides how an argument parses (help text left out)."""
    from repro.cli import build_parser

    commands = build_parser()._subparsers._group_actions[0].choices
    return {
        name: [
            (
                action.dest, action.option_strings, type(action),
                action.default, action.type, action.choices, action.nargs,
                action.const, action.metavar, action.required,
            )
            for action in sorted(parser._actions, key=lambda a: a.dest)
        ]
        for name, parser in commands.items()
    }


def _cli_group() -> dict[str, str]:
    out = {
        f"cli/{command}": hashlib.sha256(cli_stdout(command).encode()).hexdigest()
        for command in CLI_COMMANDS
    }
    out["cli/options"] = digest(option_table())
    return out


#: Group name -> builder of its {entry: digest}.
GROUPS: dict[str, Callable[[], dict[str, str]]] = {
    f"{name}/{seed}": (lambda name=name, seed=seed: _perfbench_group(name, seed))
    for name in ("fleet-steady", "shard-sparse-preempt", "compile-grid")
    for seed in SEEDS
}
GROUPS["cli"] = _cli_group


def committed() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite digests.json"
    )
    args = parser.parse_args(argv)
    digests: dict[str, str] = {}
    for build in GROUPS.values():
        digests.update(build())
    if args.write:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    old = committed()
    moved = sorted(k for k in digests.keys() | old.keys() if digests.get(k) != old.get(k))
    for key in moved:
        print(f"differs: {key}")
    same = sum(old.get(k) == v for k, v in digests.items())
    print(f"{same} of {len(digests)} digests unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

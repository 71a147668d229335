"""The four benchmark workloads: fixed lists of ``qpcox`` CLI commands.

Each command is the argument list a user would pass to ``qpcox``; the
benchmark appends ``--cache-dir`` pointing into a fresh temporary directory.
"""

from __future__ import annotations

GROUPS = [
    ["survey", "--type", "B5", "--theta", "id"],
    ["survey", "--type", "F4"],
    ["survey", "--type", "D4"],
    ["basis", "--type", "E6", "--coset", "s1,s2,s3,s4,s5"],
]

BASES = [
    ["basis", "--type", "H3", "--regular"],
    ["basis", "--type", "A5", "--class", "fpf"],
    ["wgraph", "--type", "A4", "--regular"],
]

SUITES = [
    ["verify", "--type", "B3", "--suite", "all"],
    ["verify", "--type", "A4", "--suite", "hecke"],
    ["verify", "--type", "U3", "--suite", "universal", "--cutoff", "10"],
]

# the cacheable (survey and basis) commands of groups and bases
CACHEABLE = [c for c in GROUPS + BASES if c[0] in ("survey", "basis")]


class Workload:
    """commands: one pass.  fill: commands run cold in set-up to fill the
    cache that every pass then reads.  warmup: short commands that compile
    the .pyc files and load the same code paths before anything is timed."""

    def __init__(self, name, commands, why, warmup=(), fill=()):
        self.name = name
        self.commands = [list(c) for c in commands]
        self.why = why
        self.warmup = [list(c) for c in warmup]
        self.fill = [list(c) for c in fill]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "groups",
            GROUPS,
            "group side: enumeration, twisted classes, reflection actions, QP axioms, structure checks",
            warmup=[["survey", "--type", "A2"], ["basis", "--type", "A2", "--coset", "s1"]],
        ),
        Workload(
            "bases",
            BASES,
            "120-point carriers: bar operators, canonical bases, table checks, W-graph and cells",
            warmup=[["basis", "--type", "A2", "--regular"], ["wgraph", "--type", "A2", "--regular"]],
        ),
        Workload(
            "suites",
            SUITES,
            "verify suites: many small carriers, Hecke algebra and KL basis, universal family",
            warmup=[["verify", "--type", "A2", "--suite", "hecke"]],
        ),
        Workload(
            "cache_warm",
            CACHEABLE,
            "cacheable commands of groups and bases served from a cache filled cold in set-up",
            fill=CACHEABLE,
        ),
    ]
}


def command_key(argv) -> str:
    """The name of a command in the pinned references."""
    return " ".join(argv)


def all_commands():
    """Every distinct command the benchmark runs, in a fixed order."""
    seen = {}
    for w in WORKLOADS.values():
        for c in w.warmup + w.fill + w.commands:
            seen.setdefault(command_key(c), c)
    return list(seen.values())

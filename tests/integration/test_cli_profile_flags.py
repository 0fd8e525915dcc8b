"""The CLI's execution flags are built from ExecutionProfile's fields.

Two pins: each subcommand's option strings equal the literal set below,
so deriving flags from one table neither adds nor drops any; and every
profile flag of ``sweep`` and ``serve`` reaches exactly its
ExecutionProfile field, so a field no flag reaches fails here.
"""

import argparse
import dataclasses

import pytest

from repro.api import ExecutionProfile
from repro.cli import _profile_from_args, build_parser

SURFACE = {
    "sweep": [
        "-h", "--help", "--all-scenarios", "--autoscale", "--backend",
        "--cache-dir", "--chunk-size", "--compute", "--distributed",
        "--first-seed", "--json", "--lease-ttl", "--list",
        "--max-attempts", "--max-workers", "--min-workers", "--no-cache",
        "--on-error", "--queue-dir", "--schedule", "--seeds", "--smoke",
        "--workers",
    ],
    "serve": [
        "-h", "--help", "--autoscale", "--backend", "--cache-dir",
        "--chunk-size", "--compute", "--distributed", "--lease-ttl",
        "--max-attempts", "--max-workers", "--min-workers", "--no-cache",
        "--on-error", "--parallel-jobs", "--queue-dir", "--schedule",
        "--state-dir", "--verbose", "--workers",
    ],
    "campaign": [
        "-h", "--help", "--autoscale", "--distributed", "--json",
        "--max-workers", "--min-workers", "--out-dir", "--queue-dir",
        "--schedule", "--workers",
    ],
    "worker": [
        "-h", "--help", "--cache-dir", "--drain", "--lease-ttl",
        "--max-attempts", "--max-tasks", "--no-cache", "--poll",
        "--stop-file", "--worker-id",
    ],
}

# Two command lines that between them move every profile field off its
# default (two are needed: --no-cache conflicts with --cache-dir, and
# --distributed wins over --backend), with the fields each one sets.
PROFILE_ARGV = [
    (
        ["--distributed", "--workers", "3", "--chunk-size", "2",
         "--cache-dir", "c-dir", "--queue-dir", "q-dir",
         "--lease-ttl", "5", "--compute", "vectorized",
         "--max-attempts", "2", "--on-error", "raise",
         "--schedule", "cost", "--autoscale",
         "--min-workers", "1", "--max-workers", "4"],
        {"backend": "distributed", "workers": 3, "chunk_size": 2,
         "cache_dir": "c-dir", "queue_dir": "q-dir", "lease_ttl": 5.0,
         "compute": "vectorized", "max_attempts": 2, "on_error": "raise",
         "schedule": "cost", "autoscale": True, "min_workers": 1,
         "max_workers": 4},
    ),
    (
        ["--backend", "thread", "--no-cache"],
        {"backend": "thread", "no_cache": True},
    ),
]

POSITIONALS = {"sweep": ["fig15-environment"], "serve": [":0"]}


def _subparser(command):
    action = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return action.choices[command]


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_option_strings_are_pinned(command):
    options = {
        option for action in _subparser(command)._actions
        for option in action.option_strings
    }
    assert options == set(SURFACE[command])


@pytest.mark.parametrize("command", sorted(POSITIONALS))
@pytest.mark.parametrize("argv, fields", PROFILE_ARGV)
def test_profile_flags_set_exactly_their_fields(command, argv, fields):
    args = build_parser().parse_args(
        [command, *POSITIONALS[command], *argv]
    )
    default = ExecutionProfile()
    profile = _profile_from_args(args, default)
    assert profile == dataclasses.replace(default, **fields)
    changed = {
        field.name for field in dataclasses.fields(profile)
        if getattr(profile, field.name) != getattr(default, field.name)
    }
    assert changed == set(fields)


def test_the_flags_reach_every_profile_field():
    reached = set().union(*(fields for _, fields in PROFILE_ARGV))
    assert reached == {
        field.name for field in dataclasses.fields(ExecutionProfile)
    }

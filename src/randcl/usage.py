"""The argparse parser of the command line.

cli.main reads a plain argv itself (cli._plain_args) and hands every other
argv to this parser, so only a request for help, or one with a usage
error, imports argparse and compiles this module.
"""

from __future__ import annotations

import argparse


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The argparse parser of a command table (cli._commands()), which
    reads every argv that cli._plain_args does not: help, usage and error
    messages are argparse's."""
    parser = argparse.ArgumentParser(
        prog="randcl",
        description="symbolic engine for finitely presented randomizations",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="plain text (default) or JSON output",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
    return parser

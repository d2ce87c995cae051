"""Command-line front end.

Subcommands: ``check``, ``partition``, ``kernel``, ``select``, ``enumerate``
over mapping documents, and ``sudoku propagate`` / ``sudoku solve`` over
81-character grid lines.  Exit codes: 0 success, 1 Hall violation /
contradiction / unsolvable (with the witness printed), 2 parse or validity
error (invalid UTF-8 included), 3 an exhaustive enumeration over the cap was
refused, 141 (128 + SIGPIPE) the reader closed standard output early (nothing
is written to stderr).  A Sudoku batch gets one record per grid line and exits
with the worst code over its lines.

Every subcommand returns ``(exit code, JSON payload, text lines)``; only
:func:`main` chooses between the two output formats.  Payload and lines may be
lazy, and :func:`main` reads only the one it prints.  A process imports only
what its subcommand runs: :mod:`hallkernel.sudoku` is loaded by the sudoku
handlers alone, which report a bad grid as a :class:`DocumentError`,
:mod:`json` by ``--format json`` alone, and :mod:`hallkernel.oracle`, the
tests' reference, by none.

Mapping document format: ``#`` starts a comment; optional ``X:`` / ``Y:``
header lines list whitespace-separated element tokens; every body line is
``<x> : <y1> <y2> ...``, written ``<x> :`` for an empty image.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .mappings import (
    SELECTION_CAP,
    FiniteMapping,
    InvalidMappingError,
    SizeCapError,
    check_size_cap,
)
from .partition import HallViolation, check_hall, compute_hall_partition
from .kernel import alldifferent_kernel, extract_selection, iter_selections


class DocumentError(ValueError):
    """A mapping document, or the grid input of a sudoku subcommand, failed to parse."""


# -- mapping documents ----------------------------------------------------


def parse_mapping_document(text: str) -> FiniteMapping:
    """Parse the text mapping format into a :class:`FiniteMapping`.

    Checks only the document syntax; the mapping invariants, an image line
    for an element an ``X:`` header leaves out included, come from
    :class:`FiniteMapping`, whose errors are raised as :class:`DocumentError`.
    X and Y without a header are taken in order of first appearance.  No
    token holds ``:``, which is the separator.
    """
    headers: dict[str, list[str]] = {}
    entries: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[:2] in ("X:", "Y:"):
            axis = line[0]
            if axis in headers:
                raise DocumentError(f"line {lineno}: duplicate {axis}: header")
            if ":" in line[2:]:
                raise DocumentError(f"line {lineno}: ':' inside a token of the {axis}: header")
            headers[axis] = line[2:].split()
            _reject_duplicates(headers[axis], f"line {lineno}: {axis} header")
            continue
        if ":" not in line:
            raise DocumentError(f"line {lineno}: expected '<x> : <values>'")
        head, _, tail = line.partition(":")
        x_tokens = head.split()
        if len(x_tokens) != 1:
            raise DocumentError(
                f"line {lineno}: expected exactly one element before ':'")
        x = x_tokens[0]
        if x in entries:
            raise DocumentError(f"line {lineno}: duplicate image line for {x!r}")
        if ":" in tail:
            raise DocumentError(f"line {lineno}: ':' inside a token of the image of {x!r}")
        ys = tail.split()
        _reject_duplicates(ys, f"line {lineno}: image of {x!r}")
        entries[x] = ys
    if not entries:
        raise DocumentError("document declares no images")
    x_order = headers.get("X", list(entries))
    y_order = headers.get("Y")
    if y_order is None:
        y_order = dict.fromkeys(y for x in x_order for y in entries.get(x, ()))
    try:
        return FiniteMapping(x_order, y_order, entries)
    except InvalidMappingError as exc:
        raise DocumentError(str(exc)) from exc


def _reject_duplicates(tokens: list[str], where: str) -> None:
    if len(set(tokens)) != len(tokens):
        raise DocumentError(f"{where} contains duplicate tokens")


def serialize_mapping_document(mapping: FiniteMapping) -> str:
    """Write a mapping back out in canonical document form.

    Refuses, with :class:`DocumentError`, what would not parse back: a label
    whose ``str`` is empty or holds whitespace, ``:`` or ``#``, and two labels
    of one ground set with the same ``str``.
    """
    for labels in (mapping.x_labels, mapping.y_labels):
        seen: dict[str, object] = {}
        for label in labels:
            token = str(label)
            if not token or any(ch in ":#" or ch.isspace() for ch in token):
                raise DocumentError(f"label {label!r} cannot be written as a token")
            if token in seen:
                raise DocumentError(
                    f"labels {seen[token]!r} and {label!r} are both written as {token!r}")
            seen[token] = label
    lines = ["X: " + " ".join(str(x) for x in mapping.x_labels),
             "Y: " + " ".join(str(y) for y in mapping.y_labels)]
    for x, bits in zip(mapping.x_labels, mapping.image_bits):
        lines.append(f"{x} :" + "".join(f" {y}" for y in mapping.y_labels_of(bits)))
    return "\n".join(lines) + "\n"


# -- formatting helpers ----------------------------------------------------


def _names(labels: tuple, members) -> list[str]:
    return [str(label) for label in labels if label in members]


def _set_text(labels) -> str:
    return "{" + ", ".join(str(x) for x in labels) + "}"


def _violation(mapping: FiniteMapping, violation: HallViolation, payload: dict):
    witness = _names(mapping.x_labels, violation.witness)
    return 1, {**payload, "witness": witness}, [f"violation: {_set_text(witness)}"]


def _read_input(args) -> str:
    # Bytes from a file or stdin, decoded as UTF-8 less a leading byte-order
    # mark, whatever the locale's encoding.
    if args.input is None:
        return sys.stdin.buffer.read().decode("utf-8-sig")
    with open(args.input, "rb") as handle:
        return handle.read().decode("utf-8-sig")


# -- mapping subcommands ----------------------------------------------------


def _cmd_check(mapping: FiniteMapping):
    violation = check_hall(mapping)
    if violation is not None:
        return _violation(mapping, violation, {"ok": False})
    return 0, {"ok": True}, ["OK"]


def _cmd_partition(mapping: FiniteMapping):
    result = compute_hall_partition(mapping)
    if isinstance(result, HallViolation):
        return _violation(mapping, result, {})
    blocks = [_names(mapping.x_labels, b) for b in result.blocks]
    residuals = [_names(mapping.y_labels, r) for r in result.residual_images]
    lines = [f"block {i}: {_set_text(b)} -> {_set_text(r)}"
             for i, (b, r) in enumerate(zip(blocks, residuals), start=1)]
    lines.append(f"exit: {result.exit_kind.value}")
    return 0, {"blocks": blocks, "residuals": residuals,
               "exit_kind": result.exit_kind.value}, lines


def _cmd_kernel(mapping: FiniteMapping):
    kern = alldifferent_kernel(mapping)
    images = [_names(mapping.y_labels, img) for img in kern.images]
    lines = [f"{x}: {' '.join(ys)}".rstrip() for x, ys in zip(mapping.x_labels, images)]
    witness = None
    if kern.witness is not None:
        witness = _names(mapping.x_labels, kern.witness.witness)
        lines.append(f"witness: {_set_text(witness)}")
    payload = {"kernel": {str(x): ys for x, ys in zip(mapping.x_labels, images)},
               "empty": kern.is_empty, "witness": witness}
    return (1 if kern.is_empty else 0), payload, lines


def _cmd_select(mapping: FiniteMapping):
    result = extract_selection(mapping)
    if isinstance(result, HallViolation):
        return _violation(mapping, result, {"selection": None})
    return (0, {"selection": {str(x): str(y) for x, y in result.items()}},
            [f"{x} -> {y}" for x, y in result.items()])


def _cmd_enumerate(mapping: FiniteMapping):
    # The output can grow as n!, so each rendering is a lazy walk of its own.
    check_size_cap("selection enumeration", len(mapping.x_labels), SELECTION_CAP)
    return (0, {"selections": ({str(x): str(y) for x, y in s.items()}
                               for s in iter_selections(mapping))},
            (" ".join(f"{x}->{y}" for x, y in s.items()) for s in iter_selections(mapping)))


# -- sudoku subcommands ------------------------------------------------------


def _grid_lines(text: str) -> list[tuple[int, str]]:
    # One grid at most 9 cells a line (9x9 or render() layout), else one grid a line.
    from .sudoku import GridError, grid_cells
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1)
             if grid_cells(line)]
    if not lines:
        raise GridError("no grid in input")
    sizes = [len(grid_cells(line)) for _, line in lines]
    if sum(sizes) == 81 and max(sizes) <= 9:
        return [(1, text)]
    return lines


def _sudoku_record(run, text: str):
    from . import sudoku
    try:
        grid = run(sudoku.parse_grid(text))
    except sudoku.Contradiction as exc:
        if run is sudoku.solve:
            grid = None  # dead already in the markups: unsolvable like any other
        else:
            unit = str(exc.unit) if exc.unit is not None else None
            cells = sorted(exc.cells)
            where = f" in {unit}" if unit else ""
            return (1, {"contradiction": str(exc), "unit": unit,
                        "cells": [list(c) for c in cells]},
                    [f"contradiction{where}: {_set_text(cells)}"])
    if grid is None:
        return 1, {"solved": False}, ["unsolvable"]
    return 0, {
        "grid": sudoku.grid_line(grid),
        "complete": grid.is_complete,
        "candidates": {f"{r},{c}": sorted(v)
                       for (r, c), v in sorted(grid.candidates.items())},
    }, [sudoku.render(grid)]


def _cmd_sudoku(command: str, text: str):
    from . import sudoku
    run = getattr(sudoku, command)
    try:
        grids = _grid_lines(text)
        if len(grids) == 1:
            return _sudoku_record(run, grids[0][1])
    except sudoku.GridError as exc:  # no grid, or the only one is bad
        raise DocumentError(str(exc)) from exc
    records = []
    for lineno, line in grids:
        try:
            records.append(_sudoku_record(run, line))
        except sudoku.GridError as exc:
            message = f"error: line {lineno}: {exc}"
            print(message, file=sys.stderr)
            records.append((2, {"error": str(exc)}, [message]))
    return (max(code for code, _, _ in records),
            [payload for _, payload, _ in records],
            ["\n\n".join("\n".join(lines) for _, _, lines in records)])


# -- wiring ------------------------------------------------------------------


def _add_command(commands, name: str, handler, description: str) -> None:
    sub = commands.add_parser(name, description=description, help=description)
    sub.add_argument("--input", metavar="FILE",
                     help="read from FILE instead of standard input")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")
    sub.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallkernel",
        description="Hall partitions, alldifferent kernels and Sudoku propagation "
                    "for set-valued mappings over finite sets.")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, description in (
            ("check", _cmd_check, "test the Hall condition"),
            ("partition", _cmd_partition, "compute the Hall partition"),
            ("kernel", _cmd_kernel, "compute the alldifferent kernel"),
            ("select", _cmd_select, "extract one alldifferent selection"),
            ("enumerate", _cmd_enumerate, "list all alldifferent selections")):
        _add_command(commands, name,
                     lambda text, run=handler: run(parse_mapping_document(text)),
                     description)

    sud = commands.add_parser("sudoku", description="Sudoku propagation and solving",
                              help="Sudoku propagation and solving")
    sud_commands = sud.add_subparsers(dest="sudoku_command", required=True)
    for name, description in (
            ("propagate", "narrow candidates to the per-unit alldifferent fixpoint"),
            ("solve", "solve grids completely")):
        _add_command(sud_commands, name, functools.partial(_cmd_sudoku, name),
                     description)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.handler(_read_input(args))
    except (DocumentError, OSError, SizeCapError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 2
    try:
        if args.format == "json":
            import json
            print(json.dumps(payload, default=list))  # a payload's lazy list is a generator
        else:
            sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as ``| head`` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code

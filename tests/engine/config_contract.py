"""What every public field of a config dataclass owes its users.

``ServeConfig`` and ``EngineConfig`` are the two knob surfaces users
touch.  Each public field

1. is a ``bool``, or has a value its validator (``validate()`` /
   ``__post_init__``) rejects, or is free-form — every value valid, for
   a reason the calling test spells out;
2. is set by ``repro``'s argument parser under a ``dest`` of its own
   name, unless the CLI column of its docs row says ``—``;
3. has a row in its page's docs knob table.

:func:`contract_faults` reports each broken obligation as one line;
``tests/serve/test_config.py`` and ``tests/engine/test_engine.py``
hold the two configs to it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.__main__ import _build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]


def knob_rows(text):
    """The knob table of a docs page: field name -> its CLI cell
    (``None`` where the table has no CLI column)."""
    rows, header = {}, None
    for line in text.splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
        elif header[0] == "Knob" and not set(cells[0]) <= set("-: "):
            rows[cells[0].strip("`")] = cells[header.index("CLI")] \
                if "CLI" in header else None
    return rows


def contract_faults(config, command, docs, rejected, free_form):
    """Each obligation a public field of ``config`` breaks.

    ``command`` is the ``repro`` subcommand whose parse sets the
    fields, ``docs`` the page holding the knob table, ``rejected`` the
    keyword sets the validator rejects and ``free_form`` the fields any
    value of which is valid.
    """
    rows = knob_rows((REPO_ROOT / docs).read_text(encoding="utf-8"))
    dests = vars(_build_parser().parse_args([command]))
    covered = {name for kwargs in rejected for name in kwargs}
    faults = []
    for field in dataclasses.fields(config):
        name = field.name
        if name.startswith("_"):
            continue
        if field.type not in (bool, "bool") and name not in covered \
                and name not in free_form:
            faults.append(f"{name}: no value is rejected, and it is "
                          "not free-form")
        if name not in rows:
            faults.append(f"{name}: no row in the {docs} knob table")
        elif rows[name] != "—" and name not in dests:
            faults.append(f"{name}: `repro {command}` sets no {name}")
    return faults

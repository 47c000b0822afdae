"""Shared fixtures: a tiny deterministic dataset and its workbench.

The tiny scale keeps any single test under a second while still
exercising every pipeline (three sources, duplicates, noise, gold).
Session scope matters: building the dataset once amortizes it across
the whole suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datagen import build_dataset
from repro.eval.experiments import Workbench


@pytest.fixture(scope="session")
def dataset():
    return build_dataset("tiny", seed=7)


@pytest.fixture(scope="session")
def workbench(dataset):
    return Workbench(dataset)


@pytest.fixture(scope="session")
def dblp(dataset):
    return dataset.dblp


@pytest.fixture(scope="session")
def acm(dataset):
    return dataset.acm


@pytest.fixture(scope="session")
def gs(dataset):
    return dataset.gs


@pytest.fixture(scope="session")
def under_hash_seeds():
    """Returns ``run(snippet, *argv)``: what ``python -c snippet
    argv...`` prints under ``PYTHONHASHSEED`` 1 and under 2, as a pair
    of strings.  Whatever iterates a set or a dict keyed in set order
    prints differently in the two interpreters, so the suites pinning
    "nothing follows the string-hash seed" compare the pair."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(snippet: str, *argv: str):
        return tuple(
            subprocess.run(
                [sys.executable, "-c", snippet, *argv],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=300,
                check=True).stdout
            for seed in ("1", "2"))

    return run

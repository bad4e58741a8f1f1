from __future__ import annotations

import random
import string
from pathlib import Path

import pytest

from datacause.tabular import ColumnType, Dataset, from_columns, load_csv

FIXTURES = Path(__file__).parent / "fixtures"

try:
    from hypothesis import settings
except ImportError:  # without the optional hypothesis the property tests skip
    pass
else:
    # ``--hypothesis-profile=thorough``: 1 000 examples for each property that
    # sets no max_examples of its own
    settings.register_profile("thorough", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def people_fail() -> Dataset:
    return load_csv(FIXTURES / "people_fail.csv")


@pytest.fixture(scope="session")
def people_pass() -> Dataset:
    return load_csv(FIXTURES / "people_pass.csv")


def random_dataset(seed: int, min_rows: int = 8, max_rows: int = 40) -> Dataset:
    """Small mixed-type dataset with seeded content and missing cells."""
    rng = random.Random(seed)
    n = rng.randint(min_rows, max_rows)
    cols = []
    n_cat = rng.randint(1, 2)
    n_num = rng.randint(1, 2)
    n_text = rng.randint(0, 1)
    for c in range(n_cat):
        values = [rng.choice("abcd") for _ in range(n)]
        for _ in range(rng.randint(0, n // 4)):
            values[rng.randrange(n)] = None
        cols.append((f"cat_{c}", ColumnType.CATEGORICAL, values))
    for c in range(n_num):
        values = [round(rng.uniform(-30, 70), 3) for _ in range(n)]
        for _ in range(rng.randint(0, n // 5)):
            values[rng.randrange(n)] = None
        cols.append((f"num_{c}", ColumnType.NUMERICAL, values))
    for c in range(n_text):
        values = ["".join(rng.choice("xyz") for _ in range(rng.randint(2, 14)))
                  for _ in range(n)]
        for _ in range(rng.randint(0, n // 5)):
            values[rng.randrange(n)] = None
        cols.append((f"text_{c}", ColumnType.TEXT, values))
    if all(v is None for _, _, vals in cols for v in vals):  # pragma: no cover
        cols[0][2][0] = "a"
    return from_columns(cols)


def missing_columns_pair(columns: int, seed: int, rows: int = 12) -> tuple[Dataset, Dataset]:
    """``columns`` text columns ``c0``, ``c1``, ... of four-letter tokens, and a
    copy that hides at least one cell of each: the copy differs only in its
    missing rates, so its only discriminative triplets are
    ``missing_rate(c<j>)#impute``."""
    rng = random.Random(seed)
    passing, failing = [], []
    for j in range(columns):
        cells = ["".join(rng.choice("abcdefgh") for _ in range(4)) for _ in range(rows)]
        hidden = set(rng.sample(range(rows), rng.randint(1, rows // 3)))
        passing.append((f"c{j}", ColumnType.TEXT, cells))
        failing.append((f"c{j}", ColumnType.TEXT,
                        [None if i in hidden else v for i, v in enumerate(cells)]))
    return from_columns(passing), from_columns(failing)


# --- scenario text cells, one random call per cell: the references that
# datacause.synth's bulk draws must equal, cell for cell and state for state


def per_call_letters(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def per_call_decoy_draws(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(26 ** 9) for _ in range(count)]


def divmod_token(index: int) -> str:
    """The low ten base-26 digits of ``index`` as letters, low digit first."""
    out = []
    for _ in range(5):
        index, digits = divmod(index, 676)
        out.append(string.ascii_lowercase[digits % 26] + string.ascii_lowercase[digits // 26])
    return "".join(out)

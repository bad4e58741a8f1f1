"""Black-box malfunction scorers with caching.

An oracle maps a dataset to a score in [0, 1]; 0 means the system under
test behaves properly. Scores are cached by dataset fingerprint so an
identical dataset is never scored twice.
"""

from __future__ import annotations

import math
import os
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable

from .errors import (
    OracleFailureError,
    OracleProtocolError,
    OracleTimeoutError,
    ValidationError,
)
from .tabular import Dataset, save_csv

#: the longest scorer timeout in seconds: one day, well inside what ``subprocess.run`` takes
MAX_ORACLE_TIMEOUT = 86_400


class MalfunctionOracle:
    """Caching wrapper around a concrete scorer.

    Subclasses implement :meth:`_invoke`. Oracles are assumed stateless and
    deterministic per dataset content; the cache turns that into a hard
    guarantee within a run. Calls are never issued concurrently.
    """

    def __init__(self):
        self._scores: dict[str, float] = {}
        self._invocations = 0

    def _invoke(self, dataset: Dataset) -> float:
        raise NotImplementedError

    def evaluate(self, dataset: Dataset) -> float:
        """Score a dataset, invoking the scorer only on an unseen fingerprint."""
        fp = dataset.fingerprint
        if fp in self._scores:
            return self._scores[fp]
        score = self._invoke(dataset)
        self._invocations += 1
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not math.isfinite(score):
            raise OracleProtocolError(f"oracle returned non-numeric score {score!r}")
        if not 0.0 <= score <= 1.0:
            raise OracleProtocolError(f"oracle score {score!r} outside [0, 1]")
        self._scores[fp] = float(score)
        return float(score)

    def is_cached(self, dataset: Dataset) -> bool:
        return dataset.fingerprint in self._scores

    @property
    def invocation_count(self) -> int:
        return self._invocations


class CallableOracle(MalfunctionOracle):
    """In-process oracle over a plain scoring function."""

    def __init__(self, fn: Callable[[Dataset], float]):
        super().__init__()
        self._fn = fn

    def _invoke(self, dataset: Dataset) -> float:
        return self._fn(dataset)


@dataclass(frozen=True)
class ExternalOracleSpec:
    """How to run an external scorer: a command template with exactly one
    ``{dataset}`` placeholder for the temporary CSV path."""

    command: tuple[str, ...]
    timeout: float = 30.0
    workdir: str | None = None

    def __post_init__(self):
        if isinstance(self.timeout, bool) or not isinstance(self.timeout, (int, float)) \
                or not 0 < self.timeout <= MAX_ORACLE_TIMEOUT:
            raise ValidationError(f"oracle timeout must lie in (0, {MAX_ORACLE_TIMEOUT}] "
                                  f"seconds, got {self.timeout!r}")
        holes = sum(part.count("{dataset}") for part in self.command)
        if holes != 1:
            raise OracleProtocolError(
                f"command template must contain exactly one {{dataset}} placeholder, found {holes}")


class SubprocessOracle(MalfunctionOracle):
    """Scores by writing the dataset to a CSV in a temporary directory,
    removed after each call, and invoking a command.

    Wire protocol: the command receives the CSV path, prints the score as a
    decimal literal on the last non-empty stdout line, and exits 0; output
    bytes that do not decode read as U+FFFD. The engine seed is exported as
    ``DATAEXPOSER_SEED`` for reproducibility.
    """

    def __init__(self, spec: ExternalOracleSpec, seed: int | None = None):
        super().__init__()
        self.spec = spec
        self.seed = seed

    def _invoke(self, dataset: Dataset) -> float:
        with tempfile.TemporaryDirectory(prefix="oracle-", ignore_cleanup_errors=True) as tmp:
            path = os.path.join(tmp, "oracle-input.csv")
            save_csv(dataset, path)
            command = [part.replace("{dataset}", path) for part in self.spec.command]
            env = dict(os.environ)
            if self.seed is not None:
                env["DATAEXPOSER_SEED"] = str(self.seed)
            try:
                proc = subprocess.run(
                    command,
                    capture_output=True,
                    text=True,
                    errors="replace",
                    timeout=self.spec.timeout,
                    cwd=self.spec.workdir,
                    env=env,
                )
            except subprocess.TimeoutExpired as exc:
                raise OracleTimeoutError(
                    f"oracle timed out after {self.spec.timeout}s: {command}") from exc
            except OSError as exc:  # missing or not executable
                raise OracleFailureError(f"oracle could not start: {exc}") from exc
        if proc.returncode != 0:
            raise OracleFailureError(
                f"oracle exited {proc.returncode}: {proc.stderr.strip()[:500]}")
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        if not lines:
            raise OracleProtocolError("oracle printed no output")
        try:
            return float(lines[-1].strip())
        except ValueError:
            raise OracleProtocolError(f"oracle output not a score: {lines[-1]!r}") from None

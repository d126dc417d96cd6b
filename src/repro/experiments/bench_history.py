"""Schema validation for ``BENCH_interval_solve.json`` history records.

The interval-solve benchmark appends one timestamped record per run to
the artifact's ``history`` list, building the perf trajectory across
PRs.  A silent schema drift — a renamed key, a mode summary that lost
its timings — would corrupt that trajectory without failing anything, so
the benchmark validates every record it loads *and* the record it is
about to append through :func:`validate_history_record`; corruption
raises :class:`BenchHistoryError` instead of propagating into the
artifact.

The schema is deliberately minimal: it pins the keys the trajectory
tooling actually reads (identity, config, per-mode timing summaries)
and ignores everything else, so adding new fields to a record never
breaks old validators.

One history file can interleave records from *multiple named bench
configurations* (the 20k-endpoint regression config and the
million-endpoint replay both append to ``BENCH_interval_solve.json``).
Each record carries its configuration under ``config`` and, for new
records, a ``config_name``; legacy records (written when the artifact
assumed a single config block) derive their name from the config via
:func:`config_name_of`.  Two records claiming the same name must pin
identical configs — that is what keeps a per-name trajectory
comparable — and :func:`load_history` can filter to one name.

Histories also interleave record *kinds*: the original perf records
(``kind`` absent or ``"perf"``), ``"soak"`` records appended by the
soak study (:mod:`repro.experiments.soak_study`), which pin the SLO
metrics of a scenario run so regressions in failure behavior are
caught the same way perf regressions are, and ``"stream"`` records
appended by the streaming control-loop study
(:mod:`repro.experiments.stream_study`), which pin the trigger-vs-
oracle outcome of an event-driven run.  :func:`record_kind_of`
dispatches; soak and stream records always carry an explicit
``config_name`` (the scenario is part of the name, keeping their
trajectories separate from perf ones).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

__all__ = [
    "BenchHistoryError",
    "git_sha",
    "validate_history_record",
    "config_name_of",
    "record_kind_of",
    "ssp_backend_of",
    "load_history",
    "append_history_record",
    "SLO_KEYS",
    "STREAM_REQUIRED_KEYS",
]

def git_sha(cwd: str | Path | None = None) -> str:
    """Short commit id stamped on history records, or ``"unknown"``.

    ``cwd`` is a directory inside the work tree (default: the process's).
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


#: Keys every history record must carry.
REQUIRED_KEYS = (
    "timestamp",
    "git_sha",
    "backend",
    "config",
    "realization_s",
    "batched",
    "serial",
    "incremental",
    "incremental_speedup_vs_batched",
)

#: Keys every per-mode replay summary (``batched``/``serial``/...) must
#: carry — the timing and equivalence fields the trajectory reads.
MODE_KEYS = (
    "stage1_lp_s",
    "stage2_ssp_s",
    "num_intervals",
    "assignment_digest",
    "backend",
)

#: Keys the replay ``config`` must pin for runs to be comparable.
CONFIG_KEYS = (
    "topology_name",
    "total_endpoints",
    "num_site_pairs",
    "num_intervals",
    "seed",
)

#: Extra per-mode summaries validated when present (records from
#: configs that exercise them; absent on legacy records).  ``sharded``
#: appears only on records from before stage 2 became in-process only.
OPTIONAL_MODES = ("sharded", "scalar_fill")

#: Keys every ``soak`` record must carry.
SOAK_REQUIRED_KEYS = (
    "timestamp",
    "git_sha",
    "kind",
    "config_name",
    "config",
    "scenario",
    "seed",
    "slo",
    "identity_digest",
)

#: SLO metrics a soak record's ``slo`` block must pin — the fields
#: ``tools/check_slo_regression.py`` compares across the trajectory.
SLO_KEYS = (
    "availability",
    "staleness_p99_s",
    "degraded_fraction",
    "delivered_floor",
    "solver_phase_p99_s",
)


#: Keys every ``stream`` record must carry — the trigger-vs-oracle
#: outcome metrics of a streaming control-loop run
#: (:mod:`repro.experiments.stream_study`).
STREAM_REQUIRED_KEYS = (
    "timestamp",
    "git_sha",
    "kind",
    "config_name",
    "config",
    "scenario",
    "seed",
    "trigger",
    "oracle_ratio",
    "solves_fraction",
    "qos1_floor",
    "shed_volume",
    "identity_digest",
)


def record_kind_of(record: dict) -> str:
    """The record's kind: ``"soak"``, ``"stream"``, or ``"perf"``."""
    kind = record.get("kind") if isinstance(record, dict) else None
    return kind if isinstance(kind, str) and kind else "perf"


def ssp_backend_of(record: dict) -> str:
    """The record's FastSSP kernel backend.

    New perf records carry an explicit top-level ``ssp_backend`` (kept
    out of ``config`` so same-name records stay byte-comparable across
    the backend migration); records written before the kernel existed
    ran the scalar reference.  Baseline selection filters on this so
    reference and kernel timings never mix in one trajectory
    comparison.
    """
    backend = record.get("ssp_backend") if isinstance(record, dict) else None
    return backend if isinstance(backend, str) and backend else "scalar"


def config_name_of(record: dict) -> str:
    """The record's bench-config name.

    New records carry an explicit ``config_name``; legacy records (and
    ad-hoc ones) derive ``"<topology>-<endpoints>"`` with the endpoint
    count abbreviated (``20k``, ``1m``) from their config block, so the
    historical single-config artifact keeps one coherent trajectory
    name without rewriting it.
    """
    name = record.get("config_name")
    if isinstance(name, str) and name:
        return name
    config = record.get("config", {})
    topology = config.get("topology_name", "unknown")
    endpoints = config.get("total_endpoints", 0)
    if endpoints and endpoints % 1_000_000 == 0:
        scale = f"{endpoints // 1_000_000}m"
    elif endpoints and endpoints % 1_000 == 0:
        scale = f"{endpoints // 1_000}k"
    else:
        scale = str(endpoints)
    return f"{topology}-{scale}"


class BenchHistoryError(ValueError):
    """A benchmark history record (or the artifact) violates the schema."""


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise BenchHistoryError(f"{where}: {message}")


def _validate_mode(summary: object, where: str) -> None:
    _require(isinstance(summary, dict), where, "mode summary must be a dict")
    for key in MODE_KEYS:
        _require(key in summary, where, f"mode summary missing {key!r}")
    for key in ("stage1_lp_s", "stage2_ssp_s"):
        value = summary[key]
        _require(
            isinstance(value, (int, float)) and value >= 0,
            where,
            f"{key} must be a non-negative number",
        )
    _require(
        isinstance(summary["assignment_digest"], str)
        and len(summary["assignment_digest"]) == 64,
        where,
        "assignment_digest must be a SHA-256 hex string",
    )


def _validate_soak_record(record: dict, where: str) -> None:
    for key in SOAK_REQUIRED_KEYS:
        _require(key in record, where, f"missing required key {key!r}")
    for key in ("timestamp", "git_sha", "config_name", "scenario"):
        _require(
            isinstance(record[key], str) and record[key],
            where,
            f"{key} must be a non-empty string",
        )
    _require(
        record["kind"] == "soak", where, 'kind must be "soak"'
    )
    config = record["config"]
    _require(isinstance(config, dict), where, "config must be a dict")
    for key in CONFIG_KEYS:
        _require(key in config, where, f"config missing {key!r}")
    _require(
        isinstance(record["seed"], int)
        and not isinstance(record["seed"], bool),
        where,
        "seed must be an integer",
    )
    slo = record["slo"]
    _require(isinstance(slo, dict), where, "slo must be a dict")
    for key in SLO_KEYS:
        _require(key in slo, where, f"slo missing {key!r}")
        value = slo[key]
        _require(
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value >= 0,
            where,
            f"slo[{key!r}] must be a non-negative number",
        )
    _require(
        isinstance(record["identity_digest"], str)
        and len(record["identity_digest"]) == 64,
        where,
        "identity_digest must be a SHA-256 hex string",
    )
    if "violations" in record:
        violations = record["violations"]
        _require(
            isinstance(violations, list)
            and all(isinstance(v, str) for v in violations),
            where,
            "violations must be a list of strings",
        )
    if "ssp_backend" in record:
        _require(
            isinstance(record["ssp_backend"], str)
            and bool(record["ssp_backend"]),
            where,
            "ssp_backend must be a non-empty string",
        )


def _validate_stream_record(record: dict, where: str) -> None:
    for key in STREAM_REQUIRED_KEYS:
        _require(key in record, where, f"missing required key {key!r}")
    for key in (
        "timestamp",
        "git_sha",
        "config_name",
        "scenario",
        "trigger",
    ):
        _require(
            isinstance(record[key], str) and record[key],
            where,
            f"{key} must be a non-empty string",
        )
    _require(
        record["kind"] == "stream", where, 'kind must be "stream"'
    )
    config = record["config"]
    _require(isinstance(config, dict), where, "config must be a dict")
    for key in CONFIG_KEYS:
        _require(key in config, where, f"config missing {key!r}")
    _require(
        isinstance(record["seed"], int)
        and not isinstance(record["seed"], bool),
        where,
        "seed must be an integer",
    )
    for key in (
        "oracle_ratio",
        "solves_fraction",
        "qos1_floor",
        "shed_volume",
    ):
        value = record[key]
        _require(
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value >= 0,
            where,
            f"{key} must be a non-negative number",
        )
    _require(
        isinstance(record["identity_digest"], str)
        and len(record["identity_digest"]) == 64,
        where,
        "identity_digest must be a SHA-256 hex string",
    )
    if "ssp_backend" in record:
        _require(
            isinstance(record["ssp_backend"], str)
            and bool(record["ssp_backend"]),
            where,
            "ssp_backend must be a non-empty string",
        )


def validate_history_record(record: object, index: int | None = None) -> None:
    """Check one history record against its kind's schema.

    Perf records (``kind`` absent or ``"perf"``) validate against the
    replay-bench schema; ``"soak"`` records against the SLO schema;
    ``"stream"`` records against the streaming-study schema.

    Args:
        record: The candidate record.
        index: Position in the history list, for error messages.

    Raises:
        BenchHistoryError: On any schema violation, naming the offending
            record and field.
    """
    where = "history record" if index is None else f"history[{index}]"
    _require(isinstance(record, dict), where, "record must be a dict")
    kind = record_kind_of(record)
    if kind == "soak":
        _validate_soak_record(record, where)
        return
    if kind == "stream":
        _validate_stream_record(record, where)
        return
    _require(
        kind == "perf", where, f"unknown record kind {kind!r}"
    )
    for key in REQUIRED_KEYS:
        _require(key in record, where, f"missing required key {key!r}")
    _require(
        isinstance(record["timestamp"], str) and record["timestamp"],
        where,
        "timestamp must be a non-empty string",
    )
    _require(
        isinstance(record["git_sha"], str) and record["git_sha"],
        where,
        "git_sha must be a non-empty string",
    )
    _require(
        isinstance(record["backend"], str) and record["backend"],
        where,
        "backend must be a non-empty string",
    )
    config = record["config"]
    _require(isinstance(config, dict), where, "config must be a dict")
    for key in CONFIG_KEYS:
        _require(key in config, where, f"config missing {key!r}")
    if "config_name" in record:
        _require(
            isinstance(record["config_name"], str)
            and bool(record["config_name"]),
            where,
            "config_name must be a non-empty string",
        )
    if "ssp_backend" in record:
        _require(
            isinstance(record["ssp_backend"], str)
            and bool(record["ssp_backend"]),
            where,
            "ssp_backend must be a non-empty string",
        )
    realization = record["realization_s"]
    _require(
        isinstance(realization, dict) and realization,
        where,
        "realization_s must be a non-empty dict",
    )
    for phase, seconds in realization.items():
        _require(
            isinstance(seconds, (int, float)) and seconds >= 0,
            where,
            f"realization_s[{phase!r}] must be a non-negative number",
        )
    for mode in ("batched", "serial", "incremental"):
        _validate_mode(record[mode], f"{where}.{mode}")
    for mode in OPTIONAL_MODES:
        if mode in record:
            _validate_mode(record[mode], f"{where}.{mode}")
    speedup = record["incremental_speedup_vs_batched"]
    _require(
        isinstance(speedup, (int, float)) and speedup > 0,
        where,
        "incremental_speedup_vs_batched must be a positive number",
    )


def load_history(
    path: Path | str, config_name: str | None = None
) -> list[dict]:
    """Load and validate the artifact's run history.

    A missing artifact or a snapshot-only artifact (no ``history`` key —
    written before trajectories existed) yields an empty list; anything
    present must parse as JSON and every record must pass
    :func:`validate_history_record`.  Corruption raises rather than
    silently dropping the trajectory.

    The history may mix records from several named bench configs.  Two
    records resolving to the same :func:`config_name_of` must pin
    byte-equal config blocks — a drifting config under a stable name
    would silently make the per-name trajectory incomparable.

    Args:
        path: The artifact file.
        config_name: When given, return only the records of that named
            config (legacy records match via their derived name).

    Raises:
        BenchHistoryError: When the artifact is unreadable, not JSON,
            any history record violates the schema, or records sharing
            a config name disagree on the config.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        existing = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise BenchHistoryError(
            f"{path.name}: cannot read artifact ({exc})"
        ) from exc
    if not isinstance(existing, dict):
        raise BenchHistoryError(f"{path.name}: artifact must be an object")
    history = existing.get("history", [])
    if not isinstance(history, list):
        raise BenchHistoryError(f"{path.name}: history must be a list")
    configs_by_name: dict[str, tuple[int, dict]] = {}
    for i, record in enumerate(history):
        validate_history_record(record, index=i)
        name = config_name_of(record)
        seen = configs_by_name.get(name)
        if seen is None:
            configs_by_name[name] = (i, record["config"])
        elif seen[1] != record["config"]:
            raise BenchHistoryError(
                f"history[{i}]: config of {name!r} differs from "
                f"history[{seen[0]}] — same-name records must pin "
                "identical configs"
            )
    if config_name is not None:
        return [
            record
            for record in history
            if config_name_of(record) == config_name
        ]
    return history


def append_history_record(path: Path | str, record: dict) -> int:
    """Append one validated record to a history artifact in place.

    Only extends ``history`` — whatever snapshot block the perf
    benchmarks last wrote is preserved.  Loads strictly first (schema
    *and* the same-name-identical-config invariant), refusing to append
    after a corrupt or config-drifted history.

    Returns:
        The history length after the append.
    """
    path = Path(path)
    validate_history_record(record)
    load_history(path)
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        payload = {}
    history = payload.setdefault("history", [])
    history.append(record)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return len(history)

"""Run-vs-run and rev-vs-rev regression tables over the results store.

The comparison unit is a *configuration*: ``(scene, mode, ray_kind,
seed, config_digest)``. For each configuration present on both sides we
compare the tracked throughput metrics (all higher-is-better) and flag a
regression when the new value falls more than ``tolerance`` below the
old one, driven entirely by recorded store data.

Within one side, the representative record per configuration is chosen by
:func:`latest_by_key`: clean-tree records beat dirty ones (a dirty
measurement must never out-vote the committed revision's honest point),
latest append wins among equals.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.errors import ConfigError, did_you_mean

#: Metrics compared by default — all scaled so that higher is better.
DEFAULT_METRICS = ("cycles_per_second", "simt_efficiency", "rays_per_second")

#: Relative shortfall tolerated before a metric counts as regressed.
DEFAULT_TOLERANCE = 0.05

__all__ = [
    "DEFAULT_METRICS",
    "DEFAULT_TOLERANCE",
    "compare_records",
    "compare_revisions",
    "latest_by_key",
    "render_comparison",
    "revisions_in",
]


def _config_key(record: dict) -> tuple:
    job = record.get("job") or {}
    return (job.get("scene"), job.get("mode"), job.get("ray_kind"),
            job.get("seed"), record.get("config_digest"))


def _metric(record: dict, name: str):
    metrics = record.get("metrics") or {}
    if name in metrics:
        return metrics.get(name)
    timing = record.get("timing") or {}
    return timing.get(name)


def _is_dirty(record: dict) -> bool:
    return bool((record.get("provenance") or {}).get("dirty", False))


def revisions_in(records: list[dict]) -> list[str]:
    """Distinct git revisions in first-appended order."""
    seen: list[str] = []
    for record in records:
        rev = (record.get("provenance") or {}).get("git_rev")
        if rev and rev not in seen:
            seen.append(rev)
    return seen


def latest_by_key(records: list[dict]) -> dict[tuple, dict]:
    """One representative record per configuration key.

    Clean records outrank dirty ones; among records of equal dirtiness
    the latest in append order wins.
    """
    chosen: dict[tuple, dict] = {}
    for record in records:
        key = _config_key(record)
        incumbent = chosen.get(key)
        if incumbent is None:
            chosen[key] = record
        elif _is_dirty(record) and not _is_dirty(incumbent):
            continue  # a dirty point never displaces a clean one
        else:
            chosen[key] = record
    return chosen


def compare_records(old: list[dict], new: list[dict], *,
                    metrics=DEFAULT_METRICS,
                    tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Compare two record sets configuration-by-configuration.

    Returns ``{"rows": [...], "regressions": [...], "missing": [...]}``:
    one row per shared (configuration, metric) pair with old/new values
    and relative delta, the subset of rows that regressed beyond
    ``tolerance``, and the configuration keys present only on one side.
    """
    if tolerance < 0:
        raise ConfigError(f"tolerance must be non-negative, got {tolerance}")
    baseline = latest_by_key(old)
    candidate = latest_by_key(new)
    rows, regressions, missing = [], [], []
    for key in sorted(set(baseline) | set(candidate), key=str):
        if key not in baseline or key not in candidate:
            side = "baseline" if key not in baseline else "candidate"
            missing.append({"key": key, "missing_from": side})
            continue
        before, after = baseline[key], candidate[key]
        scene, mode, ray_kind, seed, _digest = key
        identical = (before.get("run_stats_digest")
                     == after.get("run_stats_digest"))
        for metric in metrics:
            old_value = _metric(before, metric)
            new_value = _metric(after, metric)
            if old_value in (None, 0) or new_value is None:
                continue  # unmeasured on one side (e.g. no wall clock)
            delta = (float(new_value) - float(old_value)) / float(old_value)
            regressed = float(new_value) < float(old_value) * (1 - tolerance)
            row = {
                "scene": scene, "mode": mode, "ray_kind": ray_kind,
                "seed": seed, "metric": metric,
                "old": float(old_value), "new": float(new_value),
                "delta": delta, "regressed": regressed,
                "identical_stats": identical,
            }
            rows.append(row)
            if regressed:
                regressions.append(row)
    return {"rows": rows, "regressions": regressions, "missing": missing}


def compare_revisions(records: list[dict], rev_a: str, rev_b: str, *,
                      metrics=DEFAULT_METRICS,
                      tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Compare two git revisions recorded in the same store.

    ``rev_a`` is the baseline, ``rev_b`` the candidate. Unknown revisions
    raise a did-you-mean :class:`~repro.errors.ConfigError` listing what
    the store actually contains.
    """
    known = revisions_in(records)
    for rev in (rev_a, rev_b):
        if rev not in known:
            raise ConfigError(
                f"revision {rev!r} has no records in this store "
                f"(known: {', '.join(known) or 'none'})."
                + did_you_mean(rev, known))
    of_rev = lambda rev: [r for r in records
                          if (r.get("provenance") or {}).get("git_rev") == rev]
    result = compare_records(of_rev(rev_a), of_rev(rev_b),
                             metrics=metrics, tolerance=tolerance)
    result["rev_a"], result["rev_b"] = rev_a, rev_b
    return result


def render_comparison(comparison: dict, *,
                      tolerance: float = DEFAULT_TOLERANCE) -> str:
    """The regression table as aligned ASCII, ready for stdout."""
    rev_a = comparison.get("rev_a")
    rev_b = comparison.get("rev_b")
    title = (f"repro compare  {rev_a} -> {rev_b}  "
             if rev_a and rev_b else "repro compare  ")
    title += f"(tolerance {tolerance:.1%})"
    rows = [{
        "scene": row["scene"], "mode": row["mode"],
        "metric": row["metric"],
        "old": f"{row['old']:.3f}", "new": f"{row['new']:.3f}",
        "delta": f"{row['delta']:+.1%}",
        "status": "REGRESSED" if row["regressed"] else "ok",
    } for row in comparison["rows"]]
    if not rows:
        return title + "\n  (no overlapping configurations to compare)"
    table = format_table(
        rows, columns=["scene", "mode", "metric", "old", "new", "delta",
                       "status"], title=title)
    lines = [table]
    for item in comparison.get("missing", []):
        scene, mode, ray_kind, seed, _digest = item["key"]
        lines.append(f"  only on one side ({item['missing_from']} missing): "
                     f"{scene}/{mode}/{ray_kind} seed={seed}")
    count = len(comparison["regressions"])
    lines.append(f"{count} regression(s)" if count else "no regressions")
    return "\n".join(lines)

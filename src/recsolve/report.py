"""Machine-readable run reports: line-delimited JSON records plus a summary
object, with a CSV projection for tabulation."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from collections.abc import Iterable

from .harness import CLASSES, BenchmarkResult

FORMAT_VERSION = 1

_CSV_FIELDS = [
    "name",
    "category",
    "method",
    "classification",
    "verification",
    "score",
    "candidate",
    "time_sample",
    "time_fit",
    "time_verify",
    "seed",
]


def result_record(r: BenchmarkResult) -> dict:
    return {
        "name": r.name,
        "category": r.category,
        "method": r.method,
        "candidate": r.candidate,
        "score": r.score,
        "verification": r.verification,
        "classification": r.classification,
        "timings": {
            "sample": round(r.time_sample, 6),
            "fit": round(r.time_fit, 6),
            "verify": round(r.time_verify, 6),
        },
        "seed": r.seed,
        "flags": list(r.flags),
        "error": r.error,
    }


def summarize(results: list[BenchmarkResult]) -> dict:
    per_class = Counter(r.classification for r in results)
    per_category: dict[str, Counter] = {}
    for r in results:
        per_category.setdefault(r.category, Counter())[r.classification] += 1
    return {
        "benchmarks": len(results),
        "classes": {c: per_class.get(c, 0) for c in CLASSES},
        "proved": sum(1 for r in results if r.verification == "proved"),
        "by_category": {
            cat: {c: cnt.get(c, 0) for c in CLASSES}
            for cat, cnt in sorted(per_category.items())
        },
        "errors": sum(1 for r in results if has_error(r)),
    }


# flag prefixes of a verify or classify stage that raised
STAGE_ERRORS = ("verify-error:", "classify-error:")


def has_error(r: BenchmarkResult) -> bool:
    """A run error, or a verify or classify stage that raised (the result
    still carries a class, but that class is not to be trusted)."""
    return bool(r.error) or any(f.startswith(STAGE_ERRORS) for f in r.flags)


def emit_report(results: list[BenchmarkResult]) -> str:
    """Line-delimited records with a version header and a trailing summary."""
    lines = [_header_line(), *map(_record_line, results), _summary_line(results)]
    return "\n".join(lines) + "\n"


def _header_line() -> str:
    return json.dumps({"format-version": FORMAT_VERSION, "kind": "recsolve-report"})


def _record_line(r: BenchmarkResult) -> str:
    return json.dumps(result_record(r), sort_keys=True)


def _summary_line(results: list[BenchmarkResult]) -> str:
    return json.dumps({"summary": summarize(results)}, sort_keys=True)


def emit_csv(results: list[BenchmarkResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["format-version", FORMAT_VERSION])
    w.writerow(_CSV_FIELDS)
    for r in results:
        w.writerow(
            [
                r.name,
                r.category,
                r.method,
                r.classification,
                r.verification,
                f"{r.score:.6g}",
                r.candidate,
                f"{r.time_sample:.3f}",
                f"{r.time_fit:.3f}",
                f"{r.time_verify:.3f}",
                r.seed,
            ]
        )
    return buf.getvalue()


def write_report(results: Iterable[BenchmarkResult], path: str) -> list[BenchmarkResult]:
    """Write emit_report's text to `path` and emit_csv's beside it (.csv in
    place of .jsonl).  Each record is written and flushed as its result
    arrives, so a run that dies keeps the records already made; the summary
    and the CSV follow the last one.  Returns the results."""
    done: list[BenchmarkResult] = []
    with open(path, "w") as fh:
        fh.write(_header_line() + "\n")
        for r in results:
            fh.write(_record_line(r) + "\n")
            fh.flush()
            done.append(r)
        fh.write(_summary_line(done) + "\n")
    base = path[:-6] if path.endswith(".jsonl") else path
    with open(base + ".csv", "w", newline="") as fh:
        fh.write(emit_csv(done))
    return done


def strip_timings(report_text: str) -> str:
    """The report with timing fields zeroed; used by determinism checks."""
    out = []
    for line in report_text.splitlines():
        rec = json.loads(line)
        if "timings" in rec:
            rec["timings"] = {"sample": 0, "fit": 0, "verify": 0}
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"

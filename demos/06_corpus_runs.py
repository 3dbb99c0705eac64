"""Running the benchmark corpus and reading the report.

Each .rec file is sampled, guessed, optionally verified, and classified
against its expected solution (when declared):

  exact       proved, or pointwise equal to the expected form on the grid
  theta       within a constant factor along every probe ray to infinity
  exp-theta   the same after taking logs (superpolynomial growth only)
  nontrivial  a finite, non-constant candidate that fails both
  none        everything else
"""

import os
import tempfile

from recsolve.harness import RunConfig, run_corpus
from recsolve.report import emit_csv, summarize, write_report
from recsolve.sampler import SampleConfig

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

cfg = RunConfig(
    method="lasso",
    seed=7,
    verify=True,
    jobs=max(os.cpu_count() or 1, 2),
    sample=SampleConfig(seed=7),
)
results = run_corpus(CORPUS, cfg)

print(f"{'benchmark':24s} {'category':10s} {'class':10s} {'verification':26s} R^2")
for r in results:
    print(f"{r.name:24s} {r.category:10s} {r.classification:10s} {r.verification:26s} {r.score:.4g}")

summary = summarize(results)
print("\ntotals:", summary["classes"], f"(proved: {summary['proved']})")

out = os.path.join(tempfile.gettempdir(), "recsolve-report.jsonl")
write_report(results, out)
print("report written to", out, "and", out.replace(".jsonl", ".csv"))

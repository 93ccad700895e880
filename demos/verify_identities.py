"""Run the shipped identity corpus through the numeric verifier.

Uses a reduced parameter sweep so the demo finishes in a few seconds; the
acceptance-grade run is `mzv --prec 40 verify --max-param 10` (or the whole
pytest suite).
"""
from mzv.verify import SuiteConfig, run_suite

reports, summary = run_suite(SuiteConfig(max_param=4, prec=30))

width = max(len(r.ident) for r in reports)
seen = set()
for r in reports:
    if r.ident in seen:
        continue
    seen.add(r.ident)
    mine = [x for x in reports if x.ident == r.ident]
    worst = max((x.residual or "0" for x in mine), key=lambda t: float(t or 0))
    flag = " (report-only)" if r.expect == "report" else ""
    print(f"{r.ident:<{width}}  {len(mine):3d} instances  worst residual {worst}{flag}")

print()
print(
    f"{summary['instances']} instances: {summary['passes']} must-pass ok, "
    f"{summary['failures']} failures, {summary['reported']} report-only"
)

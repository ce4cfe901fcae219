"""The localized spectral sequence and the lifting question.

The first page is built from dual Q0-homology; a closed-form differential
pairs classes by right multiplication with Sq2Sq1Sq2.  When that
differential is nonzero the module cannot carry an action of the full
Steenrod algebra — the smallest seagull is the standard example.
"""

from a1mod import f2, seagull
from a1mod.davismahowald import (d2, e1_page, e3_page, lift_check,
                                 sq4_solver)
from a1mod.structure import seagull_inf

for name, m in [("seagull(1)", seagull(1)), ("seagull(2)", seagull(2)),
                ("F2", f2())]:
    page = e1_page(m, 4)
    print(f"{name}: first-page classes (sigma, stem):",
          sorted({(s, st) for s, st, _ in page.records}))
    data = d2(m)
    if data.is_zero():
        print("  closed-form differential: zero")
    else:
        for src, tgt in data.pairs:
            print(f"  closed-form differential: {src} -> {tgt}")
    e3 = e3_page(m)
    print("  surviving first-column families:",
          [(s, d) for s, d in e3.first_column if d])

print()
print("lifting verdicts:")
for name, m in [("seagull(1)", seagull(1)), ("seagull(4)", seagull(4)),
                ("truncated unbounded seagull", seagull_inf(24)),
                ("F2", f2())]:
    v = lift_check(m)
    print(f"  {name}: {v.outcome}  ({'; '.join(v.evidence)})")

print()
print("degree-4 operator feasibility (Sq1 S4 + S4 Sq1 = Sq2Sq1Sq2):")
for name, m in [("seagull(1)", seagull(1)), ("seagull(2)", seagull(2)),
                ("F2", f2())]:
    print(f"  {name}: {'feasible' if sq4_solver(m) else 'infeasible'}")

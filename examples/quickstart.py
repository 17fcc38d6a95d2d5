"""Quickstart: repairs and consistent query answering in five minutes.

Reproduces the paper's running Employee example (Examples 3.3/3.4): an
inconsistent table, its repairs, and the same consistent answers computed
four different ways — repair enumeration, residue rewriting,
Fuxman–Miller rewriting, and generated SQL on SQLite.

Run:  python examples/quickstart.py
"""

from repro import (
    Database,
    FunctionalDependency,
    RelationSchema,
    Schema,
    atom,
    consistent_answers,
    consistent_answers_by_rewriting,
    consistent_answers_fm,
    cq,
    fuxman_miller_rewrite,
    query_to_sql,
    s_repairs,
    vars_,
)
from repro.cqa import answers_via_sql


def main() -> None:
    # An Employee table where 'page' has two salaries, violating the key.
    schema = Schema.of(
        RelationSchema("Employee", ("Name", "Salary"), key=("Name",))
    )
    db = Database.from_dict(
        {
            "Employee": [
                ("page", "5K"),
                ("page", "8K"),
                ("smith", "3K"),
                ("stowe", "7K"),
            ],
        },
        schema=schema,
    )
    kc = FunctionalDependency("Employee", ("Name",), ("Salary",), name="KC")
    print("The instance:")
    print(db.render())
    print(f"\nSatisfies Name -> Salary? {kc.is_satisfied(db)}")

    # 1. Repairs: minimal consistent versions of the instance.
    repairs = s_repairs(db, (kc,))
    print(f"\n{len(repairs)} S-repairs:")
    for r in repairs:
        print(f"  deleted {sorted(map(repr, r.deleted))}")

    # 2. Consistent answers = answers true in *every* repair.
    x, y = vars_("x y")
    full = cq([x, y], [atom("Employee", x, y)], name="Q1")
    names = cq([x], [atom("Employee", x, y)], name="Q2")

    print("\nConsistent answers, four ways:")
    for label, compute in [
        ("repair enumeration ", lambda q: consistent_answers(db, (kc,), q)),
        ("residue rewriting  ",
         lambda q: consistent_answers_by_rewriting(db, (kc,), q)),
        ("Fuxman-Miller      ",
         lambda q: consistent_answers_fm(db, (kc,), q)),
        ("SQL on SQLite      ",
         lambda q: answers_via_sql(
             db, fuxman_miller_rewrite(q, (kc,), db)
         )),
    ]:
        print(f"  {label} Q1 -> {sorted(compute(full))}")

    print(f"\n  Q2 (names only) -> {sorted(consistent_answers(db, (kc,), names))}")
    print("  ('page' IS a consistent answer to Q2: every repair keeps "
          "some page tuple.)")

    # 3. The generated SQL matches the paper's Example 3.4.
    rewritten = fuxman_miller_rewrite(full, (kc,), db)
    print("\nGenerated SQL for the rewritten Q1:")
    sql, params = query_to_sql(rewritten, db.schema)
    print("  " + sql)
    if params:
        print(f"  bound to {list(params)}")


if __name__ == "__main__":
    main()

"""Independent reference for cardinality counting: full cross-product enumeration.

Pure-Python triple loops over decoded cell values; shares no code with the
vectorized executor it checks.
"""

import itertools
import operator

from nngp_card.queries import RangeFilter

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "!=": operator.ne,
}


def value_at(rel, attr, row):
    """Decoded cell value: a float, or the domain string of a categorical code."""
    ctype = rel.type_of(attr)
    raw = rel.column(attr)[row]
    if ctype.kind == "numerical":
        return float(raw)
    return ctype.values[int(raw)]


def naive_count(query, catalog):
    rels = [catalog.relation(name) for name in query.relations]

    def selections_hold(rel, row):
        for ref, flt in query.selections:
            rel_name, attr = ref.split(".", 1)
            if rel_name != rel.name:
                continue
            value = value_at(rel, attr, row)
            if isinstance(flt, RangeFilter):
                if not flt.lb <= value <= flt.ub:
                    return False
            elif value not in flt.values:
                return False
        return True

    count = 0
    for combo in itertools.product(*[range(r.n_rows) for r in rels]):
        rows = dict(zip([r.name for r in rels], combo))
        if not all(selections_hold(r, rows[r.name]) for r in rels):
            continue
        ok = True
        for cond in query.joins:
            left, right = catalog.join_pairs[cond.pair]
            lrel, lattr = left.split(".", 1)
            rrel, rattr = right.split(".", 1)
            lval = value_at(catalog.relation(lrel), lattr, rows[lrel])
            rval = value_at(catalog.relation(rrel), rattr, rows[rrel])
            if not _OPS[cond.op](lval, rval):
                ok = False
                break
        if ok:
            count += 1
    return count

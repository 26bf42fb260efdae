"""Uniform pass/fail reports produced by all checkers, and the one scan
that finds their witnesses.

Every law is a residual evaluated on basis tuples in lexicographic order,
law by law within a tuple; ``scan`` yields a ``Failure`` for each nonzero
residual, so the witness is reproducible (``scan_sparse`` visits only the
tuples a sparse walk found nonzero).  Checkers use one of three policies:

* first overall: axiom checkers stop at the first failure of their scans
  taken in turn (``first_failure``);
* every residual: residual-style checkers such as the embedding-tensor
  check record every nonzero residual (``verdict`` on the whole scan);
* first per law: the equivalence, square and Leibniz-Lie homomorphism
  conditions keep the first failure of each law (``islice(scan, 1)`` per
  law, then ``verdict``).

``require`` turns a failing report into an error that names its witness.
"""
from __future__ import annotations

from itertools import chain, islice

from .linalg import Record, Vector, _dense, is_zero_vector, vector_to_json


class Failure(Record):
    """One violated law, with the basis tuple where it failed."""

    law: str
    where: tuple[int, ...]
    residual: Vector | None = None

    def to_json(self) -> dict:
        data: dict = {"law": self.law, "where": list(self.where)}
        if self.residual is not None:
            data["residual"] = vector_to_json(self.residual)
        return data


class CheckReport(Record):
    check: str
    ok: bool
    failures: tuple[Failure, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def witness(self) -> Failure | None:
        return self.failures[0] if self.failures else None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
            "notes": list(self.notes),
        }


def scan(tuples, *laws):
    """Lazily yield a Failure for each nonzero residual, tuple by tuple and
    law by law; each law is a pair (name, residual), called as residual(*where)."""
    for where in tuples:
        for law, residual in laws:
            res = residual(*where)
            if not is_zero_vector(res):
                yield Failure(law, where, res)


def scan_sparse(size: int, *laws):
    """``scan``, in order, of the tuples where a law (name, {where: {k: entry}}) is nonzero,
    each residual made dense through ``frac``, as the sums that make one leave whole Fractions."""
    found = sorted({w for _, r in laws for w, res in r.items() if any(res.values())})
    return scan(found, *((law, lambda *w, r=r: _dense(r.get(w, {}).items(), size))
                         for law, r in laws))


def verdict(check: str, failures, notes: tuple[str, ...] = ()) -> CheckReport:
    """Passing when there are no failures, failing with all of them otherwise."""
    failures = tuple(failures)
    return CheckReport(check=check, ok=not failures, failures=failures, notes=notes)


def first_failure(check: str, *scans) -> CheckReport:
    """The verdict on the first failure of the scans, taken in turn."""
    return verdict(check, islice(chain(*scans), 1))


def require(report: CheckReport, error: type[Exception], subject: str = "", at: str = "") -> None:
    """Raise error("<subject>fails <law> at <at><where>") on a failing report."""
    if not report.ok:
        w = report.witness
        raise error(f"{subject}fails {w.law} at {at}{w.where}")

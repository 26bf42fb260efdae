"""The benchmark's three workloads: inputs made from the seed, one pass of
jobs, and the check of every job's output.

Each workload is a fixed job list per seed.  The seed picks coefficients
only; the shape of every input (which algebras, which degrees, which
entries are nonzero) is fixed, so the cost of a pass does not depend on
the seed.  Jobs call ``embtens`` through the package namespace at call
time, so a traced run sees them through its wrappers.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import random
import resource
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import embtens as E
from embtens import Matrix, MultiMap
from embtens.workspace import algebra_to_json, matrix_to_json

import benchtrace

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
# Seeded draws of each class-equality pair on the complex-ladder.
CLASS_DRAWS = 3
# The two lru caches, held before any tracer replaces the module bindings.
CACHED_CHECKS = benchtrace.cached_checks()

# Why each workload is in the benchmark; later changes cite these names.
WHY = {
    "complex-ladder": (
        "cohomology(t, k) and class_equals along the Heisenberg ladder: the time goes to "
        "dense cochain-complex assembly and exact elimination, the target of the sparse-complex work"),
    "verify-stream": (
        "fresh candidate tensors through every checker and the graded brackets: bypasses "
        "cohomology, and the tensor-check cache only misses"),
    "cli-batch": (
        "one fresh `python -m embtens.cli` process per command: start-up, workspace load "
        "and render, plus error paths with their exit codes"),
}

# Which per-layer metric should move which end-to-end metric, on which
# workload.  A workload not named is predicted to show no change.
LAYER_TABLE = (
    (("linalg.calls", "linalg.self_s", "linalg.max_coeff_bits"),
     ("wall_s", "job_tail_s"), ("complex-ladder",)),
    (("cohomology.calls", "cohomology.self_s", "cohomology.entries", "cohomology.nnz",
      "cohomology.density", "cohomology.rebuilds"),
     ("wall_s", "job_tail_s", "peak_rss_mb"), ("complex-ladder",)),
    (("tensors.calls", "tensors.self_s", "tensors.cache_hits", "tensors.cache_misses",
      "tensors.cache_entries"),
     ("job_p50_s", "peak_rss_mb"), ("verify-stream", "complex-ladder")),
    (("algebras.calls", "algebras.self_s"),
     ("wall_s", "job_p50_s"), ("verify-stream", "cli-batch")),
    (("graded.calls", "graded.self_s", "graded.entries", "graded.nnz"),
     ("wall_s", "job_tail_s"), ("verify-stream",)),
    (("leibniz_lie.calls", "leibniz_lie.self_s", "deformations.calls", "deformations.self_s"),
     ("wall_s",), ("verify-stream",)),
    (("workspace.calls", "workspace.self_s", "workspace.bytes_in", "workspace.bytes_out"),
     ("job_p50_s",), ("cli-batch",)),
    (("cli.import_s", "cli.process_s", "cli.self_s"),
     ("job_p50_s", "setup_s"), ("cli-batch",)),
)


def _load_oracles():
    spec = importlib.util.spec_from_file_location("embtens_test_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ORACLES = _load_oracles()


@dataclass
class JobError:
    """A job that raised where no exception was expected."""

    text: str


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def heisenberg(n: int) -> E.Algebra:
    """h_{2n+1} with [e_i, e_{i+n}] = z for i < n."""
    dim = 2 * n + 1
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        table[i][i + n][dim - 1] = 1
        table[i + n][i][dim - 1] = -1
    return E.Algebra(f"h{dim}", dim, E.sc_table(table), E.LIE)


def nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def central_action(g: E.Algebra, h: E.Algebra, rng: random.Random) -> E.Action:
    """An abelian g acting on a Heisenberg h through operators into its center."""
    z = h.dim - 1
    ops = []
    for _ in range(g.dim):
        rows = [[0] * h.dim for _ in range(h.dim)]
        for j in range(z):
            rows[z][j] = nonzero(rng)
        ops.append(Matrix.from_rows(rows))
    return E.Action(g, h, tuple(ops))


def tensor(action: E.Action, rows) -> E.EmbeddingTensor:
    return E.EmbeddingTensor(action, Matrix.from_rows(rows))


def central_image_rows(dim: int, rng: random.Random) -> list:
    """A tensor on h_dim under the adjoint action with image in the center and T(z) = 0."""
    rows = [[0] * dim for _ in range(dim)]
    for j in range(dim - 1):
        rows[dim - 1][j] = nonzero(rng)
    return rows


def family_i_rows(rng: random.Random, shape: int) -> list:
    a, b, c, d, k = (nonzero(rng) for _ in range(5))
    if shape == 0:
        return [[c, d, 0], [k * c, k * d, 0], [a, b, 0]]
    return [[0, 0, 0], [c, d, 0], [a, b, 0]]


def family_ii_rows(rng: random.Random) -> list:
    r = rng.choice((1, 2, 3, -2, -3))
    return [[r, 0, 0], [0, r, 0], [nonzero(rng), nonzero(rng), Fraction(r * r, r + 1)]]


def is_tensor(t: E.EmbeddingTensor) -> bool:
    """The tensor identity [Tu, Tv] = T(rho(Tu)v + [u, v]) on basis pairs.

    Written on the raw tables with plain loops, independently of the
    package's checkers, so it can serve as their oracle.
    """
    g, h, rho = t.action.source, t.action.target, t.action.rho
    ng, nh = g.dim, h.dim
    cols = [[t.matrix.entry(a, u) for a in range(ng)] for u in range(nh)]
    for u in range(nh):
        for v in range(nh):
            lhs = [Fraction(0)] * ng
            for a in range(ng):
                for b in range(ng):
                    c = cols[u][a] * cols[v][b]
                    if c:
                        for m in range(ng):
                            lhs[m] += c * g.sc[a][b][m]
            inner = list(h.sc[u][v])
            for a in range(ng):
                if cols[u][a]:
                    for r in range(nh):
                        inner[r] += cols[u][a] * rho[a].entry(r, v)
            rhs = [sum(t.matrix.entry(m, r) * inner[r] for r in range(nh)) for m in range(ng)]
            if lhs != rhs:
                return False
    return True


def combination(basis, rng: random.Random) -> tuple:
    """A seeded combination of basis vectors with nonzero coefficients."""
    out = [Fraction(0)] * len(basis[0])
    for b in basis:
        c = nonzero(rng)
        out = [x + c * y for x, y in zip(out, b)]
    return tuple(out)


def perturbed(t: E.EmbeddingTensor, rng: random.Random, cells) -> E.EmbeddingTensor:
    """The tensor with one seeded entry changed so that the identity fails."""
    for _ in range(64):
        rows = t.matrix.to_rows()
        r, c = rng.choice(cells)
        rows[r][c] += nonzero(rng)
        bad = t.with_matrix(Matrix.from_rows(rows))
        if not is_tensor(bad):
            return bad
    raise RuntimeError("no failing perturbation found")


def clear_caches() -> None:
    for fn in CACHED_CHECKS:
        fn.cache_clear()


class InProcess:
    """Shared pass plumbing for the workloads that call the library directly."""

    def __init__(self):
        self.tracer = None

    def reset(self) -> None:
        clear_caches()
        gc.collect()

    @contextlib.contextmanager
    def tracing(self):
        self.tracer = benchtrace.Tracer()
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def set_job(self, i: int) -> None:
        if self.tracer is not None:
            self.tracer.job = i

    def trace_data(self):
        return self.tracer.dump()

    def known_defect(self, index: int) -> bool:
        return False

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# complex-ladder
# ---------------------------------------------------------------------------

class ComplexLadder(InProcess):
    """Cohomology and class-equality queries along the Heisenberg ladder."""

    name = "complex-ladder"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__()
        rng = random.Random(seed)
        h3 = heisenberg(1)
        ad3 = E.adjoint_action(h3)
        t1 = tensor(ad3, [[0, 0, 0], [1, 0, 0], [2, 3, 0]])
        if smoke:
            rungs = [("h3/T1", t1, 2)]
        else:
            h5, h7 = heisenberg(2), heisenberg(3)
            g2 = E.abelian_algebra("g2", 2)
            g23 = central_action(g2, h3, rng)
            rungs = [
                ("h3/T1", t1, 4),
                ("h3/Tzero", tensor(ad3, [[0] * 3] * 3), 4),
                ("h3/Tii", tensor(ad3, [[2, 0, 0], [0, 2, 0], [0, 0, Fraction(4, 3)]]), 4),
                ("h3/Tab", tensor(ad3, [[0, 0, 0], [0, 0, 0], [1, 2, 0]]), 4),
                ("h3/family-i", tensor(ad3, family_i_rows(rng, 0)), 4),
                ("h3/family-ii", tensor(ad3, family_ii_rows(rng)), 4),
                ("g2h3", tensor(g23, [[nonzero(rng), nonzero(rng), 0] for _ in range(2)]), 4),
                ("h3/projection", E.projection_tensor(h3), 3),
                ("h5/central", tensor(E.adjoint_action(h5), central_image_rows(5, rng)), 3),
                ("h7/central", tensor(E.adjoint_action(h7), central_image_rows(7, rng)), 2),
            ]
        self.tensors = {label: t for label, t, _ in rungs}
        queries = [("cohomology", label, k, None, None)
                   for label, _, top in rungs for k in range(1, top + 1)]
        # Mostly degree 3, so that the median job is a degree-3 query rather
        # than the gap between the millisecond queries and the slow ones.
        # Several seeded draws per pair make that middle group dense, so the
        # median falls among many similar queries, not between two.
        pairs = [("h3/T1", 2, True)] if smoke else [
            ("h3/T1", 3, True), ("h3/T1", 3, False), ("h3/Tzero", 3, True), ("h3/Tii", 3, False),
            ("h3/Tab", 3, True), ("h3/Tab", 3, False), ("h3/family-i", 3, True),
            ("h3/family-i", 3, False), ("h3/family-ii", 3, False), ("g2h3", 3, True),
            ("g2h3", 3, False), ("h5/central", 2, False)]
        bases = {}
        for _ in range(1 if smoke else CLASS_DRAWS):
            for label, k, via_coboundary in pairs:
                t = self.tensors[label]
                if (label, k) not in bases:
                    bases[label, k] = E.cohomology(t, k).cocycle_basis.basis
                basis = bases[label, k]
                f = combination(basis, rng)
                if via_coboundary:
                    g = self._cochain(t, k, f) + self._coboundary(t, k, rng)
                else:
                    g = self._cochain(t, k, combination(basis, rng))
                queries.append(("class_equals", label, k, self._cochain(t, k, f), g))
        # The heavy queries (top degree of a rung of degree 3 or more) take
        # most of a pass.  The others go in a fixed shuffled order, with the
        # heavy ones spread evenly between them, so that the median job
        # samples the machine over the whole pass, not over one stretch.
        tops = {label: top for label, _, top in rungs}

        def is_heavy(q):
            return q[0] == "cohomology" and q[2] == tops[q[1]] >= 3

        heavy = [q for q in queries if is_heavy(q)]
        light = [q for q in queries if not is_heavy(q)]
        random.Random(0).shuffle(light)  # the same order for every seed
        self.jobs = light if not heavy else []
        for i, q in enumerate(heavy):
            self.jobs += light[i * len(light) // len(heavy):(i + 1) * len(light) // len(heavy)]
            self.jobs.append(q)
        self.expected = None
        E.cohomology(t1, 2)  # warm-up

    @staticmethod
    def _cochain(t, k, coeffs):
        g, h = t.action.source, t.action.target
        return MultiMap(k - 1, h.dim, g.dim, tuple(coeffs))

    @staticmethod
    def _coboundary(t, k, rng):
        g, h = t.action.source, t.action.target
        if k == 2:
            return E.tensor_coboundary(t, tuple(Fraction(nonzero(rng)) for _ in range(g.dim)))
        y = MultiMap(k - 2, h.dim, g.dim,
                     tuple(Fraction(nonzero(rng)) for _ in range(h.dim ** (k - 2) * g.dim)))
        return E.tensor_coboundary(t, y)

    def run_job(self, job):
        kind, label, k, f, g = job
        t = self.tensors[label]
        if kind == "cohomology":
            return E.cohomology(t, k)
        return E.class_equals(t, f, g, k)

    def job_name(self, job) -> str:
        kind, label, k, _, _ = job
        return f"{kind}/{label}/{k}"

    def _oracle(self):
        """Expected outputs from Bareiss ranks of freshly built differentials."""
        needed = {}
        for kind, label, k, _, _ in self.jobs:
            needed.setdefault(label, set()).update({k, k - 1})
        ranks, diffs = {}, {}
        for label, degrees in needed.items():
            cx = E.TensorComplex(self.tensors[label], 4)
            for k in sorted(d for d in degrees if d >= 1):
                d = cx.differential(k)
                diffs[label, k] = d
                ranks[label, k] = ORACLES.bareiss_rank([d.row(i) for i in range(d.rows)])
        expected = []
        for kind, label, k, f, g in self.jobs:
            below = ranks[label, k - 1] if k > 1 else 0
            if kind == "cohomology":
                dim_z = diffs[label, k].cols - ranks[label, k]
                expected.append((dim_z, below, dim_z - below))
            else:  # class_equals, always asked in degree 2 or more
                d = diffs[label, k - 1]
                diff = tuple(a - b for a, b in zip(f.coeffs, g.coeffs))
                cols = [d.col(j) for j in range(d.cols)]
                expected.append(ORACLES.bareiss_rank(cols + [diff]) == below)
        return expected

    def check_pass(self, outcomes) -> list:
        if self.expected is None:
            self.expected = self._oracle()
            self.first = outcomes
        problems = []
        for out, exp, first in zip(outcomes, self.expected, self.first):
            if isinstance(out, JobError):
                problems.append(out.text)
            elif isinstance(exp, tuple):
                got = (out.dim_z, out.dim_b, out.dim_h)
                if got != exp:
                    problems.append(f"dims {got} but Bareiss gives {exp}")
                elif out != first:
                    problems.append("report differs from the first pass")
                else:
                    problems.append(None)
            else:
                problems.append(None if out == exp else f"class_equals {out}, oracle {exp}")
        return problems


# ---------------------------------------------------------------------------
# verify-stream
# ---------------------------------------------------------------------------

@dataclass
class Candidate:
    label: str
    tensor: E.EmbeddingTensor
    valid: bool
    direction: Matrix
    deformation_ok: bool
    element: tuple
    phi: MultiMap


class VerifyStream(InProcess):
    """Fresh candidate tensors, about half valid, through every checker."""

    name = "verify-stream"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__()
        rng = random.Random(seed)
        h3 = heisenberg(1)
        ad3 = E.adjoint_action(h3)
        self.jobs = []

        def add(label, make, cells, copies=1):
            """Fresh valid members of a family, each followed by a failing perturbation."""
            for i in range(copies):
                t = make()
                self.jobs.append(self._candidate(f"{label}/valid{i}", t, True, rng))
                if cells:
                    self.jobs.append(self._candidate(f"{label}/bad{i}", perturbed(t, rng, cells), False, rng))

        h3_cells = [(0, 2), (1, 2)]
        if smoke:
            add("h3/family-ii", lambda: tensor(ad3, family_ii_rows(rng)), h3_cells)
        else:
            # Copies are chosen so that the median job lies inside the h5 group
            # (~0.1 s) and the tail inside the h7 group, not in a gap between groups.
            for shape in (0, 1):
                add(f"h3/family-i{shape}", lambda shape=shape: tensor(ad3, family_i_rows(rng, shape)),
                    h3_cells)
            add("h3/family-ii", lambda: tensor(ad3, family_ii_rows(rng)), h3_cells)
            for n, copies in ((2, 5), (3, 2)):
                h = heisenberg(n)
                ad = E.adjoint_action(h)
                add(f"{h.name}/central", lambda ad=ad, dim=h.dim: tensor(ad, central_image_rows(dim, rng)),
                    [(h.dim - 1, h.dim - 1)], copies)
            for k, n, copies in ((2, 1, 3), (3, 2, 5)):
                h = heisenberg(n)
                act = central_action(E.abelian_algebra(f"g{k}", k), h, rng)
                add(f"g{k}{h.name}", lambda act=act, k=k, dim=h.dim: tensor(
                    act, [[nonzero(rng) for _ in range(dim - 1)] + [0] for _ in range(k)]),
                    [(i, h.dim - 1) for i in range(k)], copies)
            p3 = E.projection_tensor(h3)
            add("h3/projection", lambda: p3,
                [(r, c) for r in range(p3.matrix.rows) for c in range(p3.matrix.cols)])
            add("h5/projection", lambda: E.projection_tensor(heisenberg(2)), None)
        self.run_job(self.jobs[0])  # warm-up on the first h3 candidate
        rng.shuffle(self.jobs)

    @staticmethod
    def _candidate(label, t, valid, rng) -> Candidate:
        if is_tensor(t) != valid:
            raise RuntimeError(f"{label}: generator produced the wrong kind of tensor")
        g, h = t.action.source, t.action.target
        rows = [[0] * h.dim for _ in range(g.dim)]
        rows[rng.randrange(g.dim)][rng.randrange(h.dim)] = nonzero(rng)
        direction = Matrix.from_rows(rows)
        deformation_ok = valid and all(
            is_tensor(t.with_matrix(t.matrix + direction.scale(s))) for s in (1, 2))
        element = tuple(Fraction(nonzero(rng)) for _ in range(g.dim))
        # A quarter of the cochain's coefficients are nonzero, at seeded places.
        size = h.dim * h.dim * g.dim
        coeffs = [Fraction(0)] * size
        for i in rng.sample(range(size), size // 4):
            coeffs[i] = Fraction(nonzero(rng))
        phi = MultiMap(2, h.dim, g.dim, tuple(coeffs))
        return Candidate(label, t, valid, direction, deformation_ok, element, phi)

    def run_job(self, c: Candidate):
        t = c.tensor
        routes = (E.check_embedding_tensor(t).ok, E.mc_check_tensor(t).ok,
                  E.graph_subalgebra_check(t).ok)

        def needs_tensor(fn):
            try:
                return fn()
            except E.NotAnEmbeddingTensor:
                return "refused"

        descendent = needs_tensor(lambda: E.check_leibniz(E.descendent(t)).ok)
        triangle = needs_tensor(lambda: E.check_leibniz_lie(E.induced_leibniz_lie(t)).ok)
        hemi_dim = E.hemisemidirect(t.action).dim
        deformation = needs_tensor(
            lambda: E.check_linear_deformation(E.DeformationDirection(t, c.direction)).ok)
        nijenhuis = needs_tensor(
            lambda: E.check_nijenhuis_element(E.NijenhuisCandidate(t, c.element)).ok)
        theta = E.tensor_as_multimap(t)
        closed = E.derived_bracket(theta, c.phi, t.action)
        nested = E.derived_bracket_nested(theta, c.phi, E.GradedContext.from_action(t.action))
        return routes, descendent, triangle, hemi_dim, deformation, nijenhuis, closed, nested

    def job_name(self, c: Candidate) -> str:
        return c.label

    def check_pass(self, outcomes) -> list:
        problems = []
        for c, out in zip(self.jobs, outcomes):
            if isinstance(out, JobError):
                problems.append(out.text)
                continue
            routes, descendent, triangle, hemi_dim, deformation, nijenhuis, closed, nested = out
            dims = c.tensor.action.source.dim + c.tensor.action.target.dim
            wrong = []
            if routes != (c.valid,) * 3:
                wrong.append(f"routes {routes}, expected {c.valid}")
            if c.valid:
                if descendent is not True or triangle is not True:
                    wrong.append("descendent or induced triangle fails its own axioms")
                if deformation != c.deformation_ok:
                    wrong.append(f"linear deformation {deformation}, oracle {c.deformation_ok}")
                if nijenhuis not in (True, False):
                    wrong.append("Nijenhuis check refused a valid tensor")
            elif (descendent, triangle, deformation, nijenhuis) != ("refused",) * 4:
                wrong.append("a construction accepted a failing tensor")
            if hemi_dim != dims:
                wrong.append(f"hemisemidirect has dim {hemi_dim}, expected {dims}")
            if closed != nested:
                wrong.append("closed and nested derived brackets differ")
            problems.append("; ".join(wrong) or None)
        return problems


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

DIGEST_FILE = BENCH / "cli_digest.json"
DIGEST_SEED = 0


def spawn(argv, stdout_path, stderr_path, env) -> tuple[int, float, int]:
    """Run one process to completion: exit code, wall seconds, peak RSS in KiB."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), perf_counter() - start, usage.ru_maxrss


def child_env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _rows(rows) -> list:
    return matrix_to_json(Matrix.from_rows(rows))


def _action_json(source: str, target: str, act: E.Action) -> dict:
    return {"source": source, "target": target, "rho": [matrix_to_json(m) for m in act.rho]}


@dataclass
class CliJob:
    name: str
    argv: list
    exit: int | None          # None: the verdict is whatever the library returns in-process
    output: str | None = None  # file written through --output
    defect: str | None = None  # known defect: the job is expected to fail until it is fixed


class CliBatch:
    """One fresh CLI process per command over a workspace made from the seed."""

    name = "cli-batch"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.trace_dir = None
        self.smoke = smoke
        rng = random.Random(seed)
        ws = self._workspace(rng)
        self.ws_path = workdir / "ws.json"
        self.ws_path.write_text(json.dumps(ws, indent=1, sort_keys=True), encoding="utf-8")
        (workdir / "bad.json").write_text(json.dumps(ws)[:-40], encoding="utf-8")
        (workdir / "flavor.json").write_text(json.dumps({"algebras": {"bad": {
            "dim": 2, "flavor": "lie", "sc": [[None, [1, 0]], [[1, 0], None]]}}}), encoding="utf-8")
        self.jobs = self._jobs()
        self.expected = [self._expected(job) for job in self.jobs]
        self.golden = {}
        if seed == DIGEST_SEED and not smoke and DIGEST_FILE.exists():
            self.golden = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))["jobs"]
        self.child_rss = []
        self.run_job(self.jobs[0])  # warm-up: byte-compiles the package for the children

    # -- inputs --------------------------------------------------------

    def _workspace(self, rng: random.Random) -> dict:
        h3, h5 = heisenberg(1), heisenberg(2)
        ad3, ad5 = E.adjoint_action(h3), E.adjoint_action(h5)
        g2 = E.abelian_algebra("g2", 2)
        g23 = central_action(g2, h3, rng)
        t1 = tensor(ad3, [[0, 0, 0], [1, 0, 0], [2, 3, 0]])
        fam = tensor(ad3, family_ii_rows(rng))
        h5t = tensor(ad5, central_image_rows(5, rng))
        self.tensors = {
            "T1": t1, "Tzero": tensor(ad3, [[0] * 3] * 3), "Tfam": fam,
            "Tbad": perturbed(fam, rng, [(0, 2), (1, 2)]),
            "H5": h5t, "H5bad": perturbed(h5t, rng, [(4, 4)]),
            "G2": tensor(g23, [[nonzero(rng), nonzero(rng), 0] for _ in range(2)]),
        }
        cob = [E.multimap_as_matrix(E.tensor_coboundary(
            t1, tuple(Fraction(nonzero(rng)) for _ in range(3)))) for _ in range(2)]
        cocycle = combination(E.cohomology(t1, 2).cocycle_basis.basis, rng)
        directions = {
            "D1": [[0, 0, 0], [0, 0, 0], [-1, 0, 0]],
            "Dcob": cob[0].to_rows(), "Dcob2": cob[1].to_rows(),
            "Zc": [[cocycle[u * 3 + m] for u in range(3)] for m in range(3)],
            "Dnot": [[nonzero(rng) for _ in range(3)] for _ in range(3)],
        }
        self.deform_ok = all(is_tensor(t1.with_matrix(t1.matrix + Matrix.from_rows(
            directions["D1"]).scale(s))) for s in (1, 2))
        self.h1_element = ",".join(map(str, combination(E.cohomology(t1, 1).cocycle_basis.basis, rng)))
        self.element = ",".join(str(rng.choice((-1, 0, 1))) for _ in range(3))
        tensors = {name: {"action": "g2h3" if name == "G2" else ("ad5" if name.startswith("H5") else "ad3"),
                          "matrix": matrix_to_json(t.matrix)} for name, t in self.tensors.items()}
        tensors.update({name: {"action": "ad3", "matrix": _rows(rows)}
                        for name, rows in directions.items()})
        return {
            "settings": {"maxDegree": 4, "arityCap": 4},
            "algebras": {"h3": algebra_to_json(h3), "h5": algebra_to_json(h5),
                         "g2": algebra_to_json(g2)},
            "actions": {"ad3": _action_json("h3", "h3", ad3), "ad5": _action_json("h5", "h5", ad5),
                        "g2h3": _action_json("g2", "h3", g23)},
            "tensors": tensors,
            "leibnizLie": {"ll3": {"lie": "h3", "triangle": [
                [[0, 0, -1], [0, 0, 1], None], [[0, 0, -1], [0, 0, 1], None], [None, None, None]]}},
        }

    def _jobs(self) -> list:
        w = ["--workspace", str(self.ws_path)]
        out = str(self.workdir / "out")
        unwritable = str(self.workdir / "missing" / "report.txt")
        valid = {name: is_tensor(t) for name, t in self.tensors.items()}
        jobs = [
            CliJob("check-net-T1", ["check", "net", "--tensor", "T1"] + w, 0),
            CliJob("cohomology-T1-2", ["cohomology", "--tensor", "T1", "--degree", "2"] + w, 0),
            CliJob("build-descendent-Tfam", ["build", "descendent", "--tensor", "Tfam",
                                             "--format", "json"] + w, 0),
            CliJob("error-unknown-tensor", ["check", "net", "--tensor", "Missing"] + w, 2),
            CliJob("error-unwritable-output", ["check", "net", "--tensor", "T1", "--output",
                                               unwritable] + w, 2,
                   defect="an unwritable --output path gives a traceback and exit 1"),
        ]
        if self.smoke:
            return jobs
        for name in ("Tfam", "Tbad", "H5", "H5bad", "G2"):
            fmt = ["--format", "json"] if name.startswith("H5") else []
            jobs.append(CliJob(f"check-net-{name}", ["check", "net", "--tensor", name] + fmt + w,
                               0 if valid[name] else 1))
        for name in ("T1", "Tbad", "H5"):
            fmt = ["--format", "json"] if name == "H5" else []
            jobs.append(CliJob(f"mc-net-{name}", ["mc", "net", "--tensor", name] + fmt + w,
                               0 if valid[name] else 1))
        jobs += [
            CliJob("check-lie-h5", ["check", "lie", "--algebra", "h5"] + w, 0),
            CliJob("check-action-g2h3", ["check", "action", "--action", "g2h3"] + w, 0),
            CliJob("check-leibniz-lie-ll3", ["check", "leibniz-lie", "--name", "ll3"] + w, 0),
            CliJob("check-deform-T1", ["check", "deform", "--tensor", "T1", "--direction", "D1"] + w,
                   0 if self.deform_ok else 1),
            CliJob("check-nijenhuis-T1", ["check", "nijenhuis", "--tensor", "T1",
                                          "--element", self.element] + w, None),
            CliJob("build-hemisemidirect-ad5", ["build", "hemisemidirect", "--action", "ad5",
                                                "--format", "json", "--output", out + "-hemi.json"] + w,
                   0, output=out + "-hemi.json"),
            CliJob("build-projection-net-h3", ["build", "projection-net", "--algebra", "h3",
                                               "--format", "json"] + w, 0),
            CliJob("build-induced-triangle-T1", ["build", "induced-triangle", "--tensor", "T1",
                                                 "--format", "json", "--output", out + "-tri.json"] + w,
                   0, output=out + "-tri.json"),
            CliJob("build-quotient-lie-h3", ["build", "quotient-lie", "--algebra", "h3"] + w, 0),
            CliJob("cohomology-H5-2", ["cohomology", "--tensor", "H5", "--degree", "2"] + w, 0),
            CliJob("cohomology-T1-3", ["cohomology", "--tensor", "T1", "--degree", "3"] + w, 0),
            CliJob("cohomology-Tzero-3", ["cohomology", "--tensor", "Tzero", "--degree", "3"] + w, 0),
            CliJob("cohomology-Tfam-3", ["cohomology", "--tensor", "Tfam", "--degree", "3",
                                         "--format", "json"] + w, 0),
            CliJob("cohomology-G2-3", ["cohomology", "--tensor", "G2", "--degree", "3"] + w, 0),
            CliJob("class-equals-T1-1", ["class-equals", "--tensor", "T1", "--degree", "1",
                                         "--element", self.h1_element,
                                         "--element2", self.h1_element] + w, 0),
            CliJob("class-equals-T1-2-coboundaries", ["class-equals", "--tensor", "T1", "--degree", "2",
                                                      "--direction", "Dcob", "--direction2", "Dcob2"] + w, 0),
            CliJob("class-equals-T1-2-cocycle", ["class-equals", "--tensor", "T1", "--degree", "2",
                                                 "--direction", "Dcob", "--direction2", "Zc"] + w, None),
            CliJob("class-equals-not-a-cocycle", ["class-equals", "--tensor", "T1", "--degree", "2",
                                                  "--direction", "Dnot", "--direction2", "Dcob"] + w, 1),
            CliJob("error-degree-out-of-range", ["cohomology", "--tensor", "T1", "--degree", "9"] + w, 2),
            CliJob("error-missing-flag", ["check", "net"] + w, 2),
            CliJob("error-no-workspace", ["check", "net", "--tensor", "T1"], 2),
            CliJob("error-bad-json", ["check", "net", "--tensor", "T1", "--workspace",
                                      str(self.workdir / "bad.json")], 2),
            CliJob("error-flavor-violation", ["check", "lie", "--algebra", "bad", "--workspace",
                                              str(self.workdir / "flavor.json")], 2),
            CliJob("error-unknown-check", ["check", "bogus"] + w, 2),
        ]
        return jobs

    def _expected(self, job: CliJob) -> tuple:
        """(exit code, stdout bytes, --output file bytes) the job should produce."""
        cli = importlib.import_module("embtens.cli")
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code, rendered = cli.run(job.argv)
        except OSError:
            return job.exit, b"", None  # the known defect; the correct result is a usage error
        if job.output is not None:
            return job.exit if job.exit is not None else code, b"", rendered.encode()
        return job.exit if job.exit is not None else code, rendered.encode(), None

    # -- one pass ------------------------------------------------------

    def reset(self) -> None:
        gc.collect()

    @contextlib.contextmanager
    def tracing(self):
        self.trace_dir = self.workdir / "spans"
        self.trace_dir.mkdir(exist_ok=True)
        try:
            yield
        finally:
            self.trace_dir = None

    def set_job(self, i: int) -> None:
        self.job_index = i

    def run_job(self, job: CliJob):
        if job.output is not None and os.path.exists(job.output):
            os.unlink(job.output)
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "embtens.cli"] + job.argv
        else:
            spans = self.trace_dir / f"{self.job_index}.json"
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(spans),
                    str(self.job_index)] + job.argv
        stdout, stderr = self.workdir / "stdout", self.workdir / "stderr"
        code, _, rss = spawn(argv, stdout, stderr, self.env)
        self.child_rss.append(rss)
        written = Path(job.output).read_bytes() if job.output and os.path.exists(job.output) else None
        return code, stdout.read_bytes(), written

    def job_name(self, job: CliJob) -> str:
        return job.name

    def peak_rss_kb(self) -> int:
        return max(self.child_rss)

    def check_pass(self, outcomes) -> list:
        problems = []
        for job, exp, out in zip(self.jobs, self.expected, outcomes):
            if out != exp:
                got = f"exit {out[0]}" if out[0] != exp[0] else "different output bytes"
                problems.append(f"{got}, expected exit {exp[0]}"
                                + (f" (known defect: {job.defect})" if job.defect else ""))
            elif self.golden and self.golden.get(job.name) != digest(out):
                problems.append("output differs from the recorded digest")
            else:
                problems.append(None)
        return problems

    def known_defect(self, index: int) -> bool:
        return self.jobs[index].defect is not None

    def trace_data(self) -> dict:
        spans, counters = [], {}
        for path in sorted(self.workdir.joinpath("spans").glob("*.json"), key=lambda p: int(p.stem)):
            data = json.loads(path.read_text(encoding="utf-8"))
            base = len(spans)
            spans += [s[:4] + [s[4] + base if s[4] >= 0 else -1] + s[5:] for s in data["spans"]]
            for key, value in data["counters"].items():
                if key == "linalg.max_coeff_bits":
                    counters[key] = max(counters.get(key, 0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        return {"spans": spans, "counters": counters}


def digest(outcome) -> str:
    code, stdout, written = outcome
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(stdout)
    if written is not None:
        h.update(b"\0--output\0" + written)
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (ComplexLadder, VerifyStream, CliBatch)}

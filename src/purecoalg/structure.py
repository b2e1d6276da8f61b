"""Structure theory of pointed coalgebras.

Central objects:

* the wedge D ^ F = kernel(C -> C (x) C -> C/D (x) C/F), computed from
  the integral quotient projections that purity provides;
* the coradical filtration C_0 <= C_1 <= ... with C_0 the span of the
  group-likes and C_{n+1} = C_n ^ C_0, which is exhaustive for pointed
  coalgebras;
* the decomposition into irreducible components, computed two ways: the
  primary algorithm lifts the primitive idempotents of the semisimple
  quotient of the dual algebra over the fraction field and carves out
  the components with the dual action, while the oracle iterates wedges
  of each group-like line until stabilization;
* the natural retraction of C onto its coradical, given on each
  component by x -> eps(x) * g.

Every Filtration is machine-checked at construction: stages must be
pure subcoalgebra lattices, increase monotonically, and satisfy the
comultiplication compatibility Delta(V_n) <= sum V_{n-i} (x) V_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coalgebra import (
    Coalgebra,
    CoalgebraMap,
    is_subcoalgebra,
    tensor,
    validate_map,
)
from .errors import (
    AmbientMismatch,
    NotExhaustive,
    NotGroupLike,
    NotIrreducible,
    NotPure,
    NotSubcoalgebra,
    RingMismatch,
    ValidationError,
)
from .grouplike import GroupLikeSet, group_likes, pointed_group_likes
from .lattice import Lattice, kernel_lattice, solve_in_rows
from .matrix import Matrix, elementary_divisors


class Filtration:
    """Increasing chain of pure subcoalgebra lattices compatible with Delta."""

    __slots__ = ("coalgebra", "stages")

    def __init__(self, coalgebra: Coalgebra, stages):
        stages = list(stages)
        if not stages:
            raise ValidationError("a filtration needs at least one stage")
        for v in stages:
            if v.ambient_rank != coalgebra.rank:
                raise AmbientMismatch("filtration stage has wrong ambient rank")
        for lower, upper in zip(stages, stages[1:]):
            if not upper.contains_lattice(lower):
                raise ValidationError("filtration stages must increase")
        for idx, v in enumerate(stages):
            flag, witness = v.is_pure()
            if not flag:
                raise NotPure(f"filtration stage {idx} is not pure (witness prime {witness})")
            if not is_subcoalgebra(v, coalgebra):
                raise NotSubcoalgebra(f"filtration stage {idx} is not a subcoalgebra")
        self.coalgebra = coalgebra
        self.stages = tuple(stages)
        self._check_compatibility()

    def _check_compatibility(self):
        c = self.coalgebra
        for n, v in enumerate(self.stages):
            target = _stage_tensor_sum(self.stages, n, n)
            for row in v.basis.rows:
                if not target.contains(c.comultiply(row)):
                    raise ValidationError(f"Delta is not compatible with filtration stage {n}")

    @property
    def length(self) -> int:
        return len(self.stages)

    @property
    def stage_ranks(self) -> tuple[int, ...]:
        return tuple(v.rank for v in self.stages)

    @property
    def exhaustive(self) -> bool:
        return self.stages[-1].rank == self.coalgebra.rank

    def stage(self, n: int) -> Lattice:
        """Stage V_n, constant beyond the last computed one."""
        return self.stages[min(n, len(self.stages) - 1)]

    def graded_ranks(self) -> tuple[int, ...]:
        ranks = self.stage_ranks
        return (ranks[0],) + tuple(b - a for a, b in zip(ranks, ranks[1:]))

    def is_wedge_filtration(self) -> bool:
        """Whether V_n <= V_{n-1} ^ V_0 holds at every stage."""
        for n in range(1, len(self.stages)):
            w = wedge(self.stages[n - 1], self.stages[0], self.coalgebra)
            if not w.contains_lattice(self.stages[n]):
                return False
        return True


def _stage_tensor_sum(stages, a: int, n: int) -> Lattice:
    """The lattice sum over i of V_{min(n-i, a)} (x) V_{min(i, a)}."""
    seen = set()
    rows = []
    ring = stages[0].ring
    ambient = stages[0].ambient_rank ** 2
    for i in range(n + 1):
        left = min(n - i, len(stages) - 1)
        right = min(i, len(stages) - 1)
        if (left, right) in seen:
            continue
        seen.add((left, right))
        rows.extend(stages[left].basis.kron(stages[right].basis).rows)
    return Lattice.from_rows(ring, ambient, rows)


@dataclass
class ComponentDecomposition:
    """Pairs (group-like, component lattice) witnessing C as a direct sum."""

    coalgebra: Coalgebra
    parts: tuple

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def coradical(self) -> Lattice:
        """Span of the group-likes, certified when the decomposition was built."""
        return Lattice.from_rows(self.coalgebra.ring, self.coalgebra.rank, [list(g) for g, _ in self.parts])

    def stacked_basis(self) -> Matrix:
        rows = []
        for _, lat in self.parts:
            rows.extend(lat.basis.rows)
        return Matrix(self.coalgebra.ring, rows, self.coalgebra.rank)


def _validated_decomposition(c: Coalgebra, parts) -> ComponentDecomposition:
    parts = sorted(parts, key=lambda p: tuple(p[0]))
    gl = [tuple(g) for g, _ in parts]
    for idx, (g, lat) in enumerate(parts):
        flag, witness = lat.is_pure()
        if not flag:
            raise AssertionError(f"component {idx} is impure (witness {witness})")
        if not is_subcoalgebra(lat, c):
            raise AssertionError(f"component {idx} is not a subcoalgebra")
        if not lat.contains(list(g)):
            raise AssertionError(f"component {idx} misses its group-like")
        for h in gl:
            if h != tuple(g) and lat.contains(list(h)):
                raise AssertionError(f"component {idx} contains a second group-like")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if parts[i][1].intersect(parts[j][1]).rank != 0:
                raise AssertionError("components intersect nontrivially")
    decomposition = ComponentDecomposition(c, tuple((tuple(g), lat) for g, lat in parts))
    stacked = decomposition.stacked_basis()
    if stacked.nrows != c.rank:
        raise AssertionError("components do not fill the coalgebra")
    divs = elementary_divisors(stacked)
    if len(divs) != c.rank or not all(c.ring.is_unit(d) for d in divs):
        raise AssertionError("stacked component basis is not unimodular")
    return decomposition


def wedge(d: Lattice, f: Lattice, c: Coalgebra) -> Lattice:
    """Wedge product: kernel of C -> C (x) C -> C/D (x) C/F.

    Both inputs must be pure subcoalgebra lattices; the quotient
    projections are then integral matrices and the kernel is pure.
    """
    for name, lat in (("first", d), ("second", f)):
        if lat.ambient_rank != c.rank:
            raise AmbientMismatch(f"{name} wedge argument has wrong ambient rank")
        flag, witness = lat.is_pure()
        if not flag:
            raise NotPure(f"{name} wedge argument is impure (witness prime {witness})")
        if not is_subcoalgebra(lat, c):
            raise NotSubcoalgebra(f"{name} wedge argument is not a subcoalgebra")
    proj_d, _ = d.complement_projection()
    proj_f, _ = f.complement_projection()
    composite = c.delta * proj_d.kron(proj_f)
    out = kernel_lattice(composite)
    if not (out.contains_lattice(d) and out.contains_lattice(f)):
        raise AssertionError("wedge must contain both arguments")
    return out


def _require_pure(gl: GroupLikeSet) -> GroupLikeSet:
    """Group-like set whose span is pure, the scope of the structure theory.

    A coalgebra whose group-likes collide modulo some prime (the span is
    then impure) sits outside the reach of the decomposition and
    splitting theorems; such inputs are rejected with the witness prime
    rather than silently producing a non-direct sum.
    """
    if not gl.pure:
        raise NotPure(
            "the group-like span is impure"
            f" (reduction mod {gl.purity_witness} identifies group-likes);"
            " the coradical structure theory does not apply"
        )
    return gl


def coradical_lattice(c: Coalgebra) -> Lattice:
    """Stage zero of the coradical filtration: the span of the group-likes."""
    return _require_pure(group_likes(c)).lattice()


def coradical_filtration(c: Coalgebra) -> Filtration:
    """The pure coradical filtration of a pointed coalgebra.

    V_0 is the group-like span and V_{n+1} = V_n ^ V_0; the chain must
    reach the full lattice, and a stall below full rank is reported as
    NotExhaustive (it would contradict pointedness).
    """
    v0 = _require_pure(pointed_group_likes(c, "coradical filtration needs a pointed coalgebra")).lattice()
    stages = [v0]
    while stages[-1].rank < c.rank:
        if len(stages) > c.rank + 1:
            raise NotExhaustive("coradical filtration exceeded the rank bound")
        nxt = wedge(stages[-1], v0, c)
        if nxt == stages[-1]:
            raise NotExhaustive("coradical filtration stabilized below full rank")
        stages.append(nxt)
    return Filtration(c, stages)


def primitives(c: Coalgebra, g) -> Lattice:
    """Primitive elements relative to the unique group-like g.

    These are the solutions of Delta(x) = g (x) x + x (x) g; together
    with the group-like line they exhaust stage one of the coradical
    filtration, which is verified before returning.
    """
    gl = pointed_group_likes(c, "primitives need a pointed irreducible coalgebra")
    if len(gl) != 1:
        raise NotIrreducible(f"expected a unique group-like, found {len(gl)}")
    if tuple(g) != gl.vectors[0]:
        raise NotGroupLike(f"{g} is not the group-like of this coalgebra")
    ring = c.ring
    n = c.rank
    rows = []
    for i in range(n):
        row = list(c.delta.rows[i])
        for j in range(n):
            # subtract g (x) e_i and e_i (x) g
            row[j * n + i] = row[j * n + i] - g[j]
            row[i * n + j] = row[i * n + j] - g[j]
        if ring.kind == "Fp":
            row = [v % ring.p for v in row]
        rows.append(row)
    pr = kernel_lattice(Matrix(ring, rows, n * n))
    v0 = Lattice.from_rows(ring, n, [list(g)])
    v1 = wedge(v0, v0, c)
    if v1.rank != v0.rank + pr.rank or v1 != v0.add(pr):
        raise AssertionError("stage one must split as coradical plus primitives")
    return pr


def _dual_action_matrix(c: Coalgebra, a, field) -> Matrix:
    """Matrix of x -> (id (x) a) Delta(x) over the fraction field."""
    n = c.rank
    rows = []
    for i in range(n):
        drow = c.delta.rows[i]
        row = []
        for j in range(n):
            acc = field.zero
            base = j * n
            for k in range(n):
                v = drow[base + k]
                if v:
                    acc = acc + field_conv(c.ring, field, v) * a[k]
            row.append(acc)
        rows.append(row)
    return Matrix(field, rows, n)


def field_conv(ring, field, v):
    return v if field == ring else ring.to_fraction(v)


def _dual_multiply(delta_rows_field, n, field, x, y):
    """Product in the dual algebra over the fraction field."""
    acc = [field.zero] * n
    for k in range(n):
        row = delta_rows_field[k]
        total = field.zero
        for i in range(n):
            xi = x[i]
            if not xi:
                continue
            base = i * n
            for j in range(n):
                yj = y[j]
                if yj:
                    v = row[base + j]
                    if v:
                        total = total + v * xi * yj
        acc[k] = total
    if field.kind == "Fp":
        acc = [v % field.p for v in acc]
    return acc


def components(c: Coalgebra) -> ComponentDecomposition:
    """Decomposition of a pointed coalgebra into irreducible components.

    For each group-like g the primitive idempotent e_g of the dual
    algebra over the fraction field is obtained by solving the character
    interpolation problem and lifting along the nilpotent radical with
    the iteration e <- 3e^2 - 2e^3; the component is the integral part
    of the eigenspace of the dual action of e_g.
    """
    gl = _require_pure(pointed_group_likes(c, "component decomposition needs a pointed coalgebra"))
    n = c.rank
    ring = c.ring
    if n == 0:
        return ComponentDecomposition(c, ())
    field = ring.fraction_field()
    conv = (lambda v: v) if field == ring else ring.to_fraction
    delta_rows_field = [[conv(v) for v in row] for row in c.delta.rows]
    # characters as rows over the field
    char_matrix = Matrix(field, [[conv(x) for x in g] for g in gl.vectors], n)
    parts = []
    steps = max(1, math.ceil(math.log2(max(2, n))) + 1)
    for idx, g in enumerate(gl.vectors):
        target = [field.one if t == idx else field.zero for t in range(len(gl))]
        e = solve_in_rows(char_matrix.transpose(), target)
        if e is None:
            raise AssertionError("character interpolation must be solvable over the field")
        for _ in range(steps):
            e2 = _dual_multiply(delta_rows_field, n, field, e, e)
            e3 = _dual_multiply(delta_rows_field, n, field, e2, e)
            e = [3 * a - 2 * b for a, b in zip(e2, e3)]
            if field.kind == "Fp":
                e = [v % field.p for v in e]
        if _dual_multiply(delta_rows_field, n, field, e, e) != e:
            raise AssertionError("idempotent lifting did not converge")
        act = _dual_action_matrix(c, e, field)
        shifted = act - Matrix.identity(field, n)
        if field == ring:
            component = kernel_lattice(shifted)
        else:
            denom = 1
            for row in shifted.rows:
                for v in row:
                    denom = denom * v.denominator // math.gcd(denom, v.denominator)
            cleared = Matrix(ring, [[ring.normalize(v * denom) for v in row] for row in shifted.rows], n)
            component = kernel_lattice(cleared)
        parts.append((tuple(g), component))
    return _validated_decomposition(c, parts)


def components_by_wedge(c: Coalgebra) -> ComponentDecomposition:
    """Oracle decomposition: iterate wedges of each group-like line."""
    gl = _require_pure(pointed_group_likes(c, "component decomposition needs a pointed coalgebra"))
    if c.rank == 0:
        return ComponentDecomposition(c, ())
    parts = []
    for g in gl.vectors:
        line = Lattice.from_rows(c.ring, c.rank, [list(g)])
        cur = line
        for _ in range(c.rank + 1):
            nxt = wedge(cur, line, c)
            if nxt == cur:
                break
            cur = nxt
        else:
            raise NotExhaustive("wedge iteration failed to stabilize within the rank bound")
        parts.append((tuple(g), cur))
    return _validated_decomposition(c, parts)


def split_coradical(c: Coalgebra) -> CoalgebraMap:
    """Natural retraction of C onto its coradical.

    On each irreducible component the retraction is x -> eps(x) * g;
    the component decomposition glues these into one idempotent
    coalgebra endomorphism with image the group-like span.
    """
    decomposition = components(c)
    ring = c.ring
    n = c.rank
    if n == 0:
        return CoalgebraMap(c, c, Matrix(ring, [], 0))
    basis_rows = []
    image_rows = []
    for g, lat in decomposition.parts:
        for row in lat.basis.rows:
            basis_rows.append(row)
            eps = c.counit_of(row)
            img = [eps * x for x in g]
            if ring.kind == "Fp":
                img = [v % ring.p for v in img]
            image_rows.append(img)
    w = Matrix(ring, basis_rows, n)
    r = w.inverse() * Matrix(ring, image_rows, n)
    retraction = CoalgebraMap(c, c, r)
    bad = validate_map(retraction).first_failure()
    if bad is not None:
        raise AssertionError(f"coradical retraction failed validation: {bad}")
    if r * r != r:
        raise AssertionError("coradical retraction must be idempotent")
    if Lattice.from_rows(ring, n, r.rows) != decomposition.coradical():
        raise AssertionError("retraction image must be the coradical")
    for g, _ in decomposition.parts:
        if retraction.apply(list(g)) != list(g):
            raise AssertionError("retraction must fix the group-likes")
    return retraction


def check_splitting_naturality(f: CoalgebraMap) -> bool:
    """Whether the coradical retractions commute with the map."""
    f.require_valid()
    r_dom = split_coradical(f.domain)
    r_cod = split_coradical(f.codomain)
    return r_dom.matrix * f.matrix == f.matrix * r_cod.matrix


def tensor_filtration(fc: Filtration, fd: Filtration) -> Filtration:
    """Filtration on C (x) D with stages U_n = sum of C_i (x) D_{n-i}.

    The graded rank identity
    rank(U_n/U_{n-1}) = sum rank(C_i/C_{i-1}) * rank(D_j/D_{j-1})
    is asserted stage by stage, and the result is exhaustive exactly
    when both inputs are.
    """
    c, d = fc.coalgebra, fd.coalgebra
    if c.ring != d.ring:
        raise RingMismatch(f"{c.ring} vs {d.ring}")
    product = tensor(c, d)
    ring = c.ring
    ambient = product.rank
    top = (fc.length - 1) + (fd.length - 1)
    stages = []
    for n in range(top + 1):
        seen = set()
        rows = []
        for i in range(n + 1):
            a = min(i, fc.length - 1)
            b = min(n - i, fd.length - 1)
            if (a, b) in seen:
                continue
            seen.add((a, b))
            rows.extend(fc.stages[a].basis.kron(fd.stages[b].basis).rows)
        stages.append(Lattice.from_rows(ring, ambient, rows))
    filt = Filtration(product, stages)
    graded_c = fc.graded_ranks()
    graded_d = fd.graded_ranks()
    graded_u = filt.graded_ranks()
    for n in range(top + 1):
        expected = sum(
            graded_c[i] * graded_d[n - i]
            for i in range(n + 1)
            if i < len(graded_c) and n - i < len(graded_d)
        )
        if graded_u[n] != expected:
            raise AssertionError(f"tensor filtration graded rank mismatch at stage {n}")
    if fc.exhaustive and fd.exhaustive and not filt.exhaustive:
        raise AssertionError("tensor filtration of exhaustive filtrations must be exhaustive")
    return filt


def push_filtration(f: CoalgebraMap, v: Filtration) -> Filtration:
    """Purified image filtration on the codomain.

    Stages are the saturations of the stagewise images; purification
    keeps both the subcoalgebra property and the wedge compatibility, so
    the result validates as a filtration of the image subcoalgebra.
    """
    f.require_valid()
    if v.coalgebra != f.domain:
        raise AmbientMismatch("filtration does not live on the domain of the map")
    stages = []
    for stage in v.stages:
        pushed = Lattice.from_rows(f.domain.ring, f.codomain.rank, (stage.basis * f.matrix).rows)
        stages.append(pushed.saturate())
    return Filtration(f.codomain, stages)

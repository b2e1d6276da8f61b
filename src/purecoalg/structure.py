"""Structure theory of pointed coalgebras.

Central objects:

* the wedge D ^ F = kernel(C -> C (x) C -> C/D (x) C/F), computed from
  the integral quotient projections P_D, P_F that purity provides: row
  i of its kernel matrix is P_D^T X_i P_F for the n x n matrix X_i of
  Delta(e_i), worked out in integers (mod p over F_p);
* the coradical filtration C_0 <= C_1 <= ... with C_0 the span of the
  group-likes and C_{n+1} = C_n ^ C_0, which is exhaustive for pointed
  coalgebras;
* the decomposition into irreducible components, computed two ways: the
  primary algorithm lifts the primitive idempotents of the semisimple
  quotient of the dual algebra and carves out the components with the
  dual action, while the oracle iterates wedges of each group-like line
  until stabilization.  The lift runs in integers for every ring, on
  the stored blocks of D * Delta, with an idempotent held as an integer
  vector over one common denominator (residues mod p over F_p);
* the natural retraction of C onto its coradical, given on each
  component by x -> eps(x) * g.

Every Filtration is machine-checked at construction: stages must be
pure subcoalgebra lattices, increase monotonically, and satisfy the
comultiplication compatibility Delta(V_n) <= sum V_{n-i} (x) V_i.  Every
component decomposition is checked too: pure parts whose stacked bases
form a unimodular basis of C, each a subcoalgebra holding its own
group-like and no other.  Both read the subcoalgebra, compatibility
and membership conditions off the support of Delta in one basis adapted
to the flag or to the direct sum (``_adapted_support``): Delta is
carried into that basis once, in integers, and only which coefficients
are nonzero is read.  Nothing is built in the n^2-dimensional C (x) C.

The coradical filtration and the component decomposition are each built
and checked once per coalgebra and held on it (``Coalgebra._derived``):
repeated calls read them back, and ``split_coradical`` builds on the
held decomposition.  A call that raises holds nothing, and the next
call runs every check again.  A retraction is built and checked on
every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coalgebra import (
    Coalgebra,
    CoalgebraMap,
    _transported,
    is_subcoalgebra,
    sandwich,
    stored_coordinates,
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
from .lattice import Lattice, kernel_lattice
from .matrix import Matrix, elementary_divisors, from_integer_hermite, hnf
from .rings import ZZ, cleared_rows


class Filtration:
    """Increasing chain of pure subcoalgebra lattices compatible with Delta.

    Construction validates the chain, stage by stage: the stages must
    increase, each must be pure and a subcoalgebra, and then
    Delta(V_m) <= sum_i V_{m-i} (x) V_i must hold at every stage m.  All
    of it but the increase and purity tests is read off one matrix: Delta
    in a basis t_0, t_1, ... adapted to the flag, where the first rank V_m
    rows span V_m.  Let deg r be the first stage holding t_r.  Over the
    fraction field V_m (x) V_m is spanned by the t_s (x) t_t with s and t
    of degree at most m, and the sum by those of total degree at most m,
    and purity makes both statements integral.  So a nonzero coefficient
    of t_s (x) t_t in Delta(t_r) with max(deg s, deg t) > deg r means
    stage deg r is not a subcoalgebra, and one with
    deg s + deg t > deg r that it is not compatible; the smallest such
    stage is reported.
    """

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
        impure = None
        for idx, v in enumerate(stages):
            flag, witness = v.is_pure()
            if not flag:
                impure = NotPure(f"filtration stage {idx} is not pure (witness prime {witness})")
                break
        # the checks run on the pure prefix; a subcoalgebra failure below
        # the first impure stage is reported ahead of it
        prefix = stages[: idx if impure else len(stages)]
        incompatible = None
        if prefix and prefix[-1].rank:
            rows, deg = _flag_basis(coalgebra, prefix)
            for r, pairs in enumerate(_adapted_support(coalgebra, rows, prefix[-1].rank)[1]):
                for s, t in pairs:
                    if max(deg[s], deg[t]) > deg[r]:
                        raise NotSubcoalgebra(f"filtration stage {deg[r]} is not a subcoalgebra")
                    if incompatible is None and deg[s] + deg[t] > deg[r]:
                        incompatible = deg[r]
        if impure:
            raise impure
        if incompatible is not None:
            raise ValidationError(f"Delta is not compatible with filtration stage {incompatible}")
        self.coalgebra = coalgebra
        self.stages = tuple(stages)

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


def _scaled_inverse(rows, base) -> list:
    """Rows of d * T^-1 for a square integer T invertible over the fraction field, d a nonzero integer.

    Over F_p the entries are residues and d = 1.  Over Z, with U * T = H
    the Hermite form (upper triangular), d = det H makes d * H^-1
    integral, so back substitution in H * Z = d * U divides exactly and
    Z = d * T^-1 comes out fraction-free.
    """
    n = len(rows)
    if base.kind == "Fp":
        return Matrix(base, rows, n).inverse().rows
    h, u = hnf(Matrix(base, rows, n))
    h = h.rows
    d = math.prod(h[i][i] for i in range(n))
    out = [None] * n
    for i in reversed(range(n)):
        acc = [d * x for x in u.rows[i]]
        for j in range(i + 1, n):
            if h[i][j]:
                acc = [x - h[i][j] * y for x, y in zip(acc, out[j])]
        out[i] = [x // h[i][i] for x in acc]
    return out


def _adapted_support(c: Coalgebra, rows, checked: int):
    """(section, support) for Delta in the basis t_0, ..., t_{n-1} given by the rows.

    The rows T need only be invertible over the fraction field.  Each is
    cleared of denominators (a row scalar changes no support), the
    section S = d * T^-1 is computed fraction-free, and one
    ``_transported`` gives X'_r = S^T X(t_r) S, the coefficients of
    Delta(t_r) on the t_a (x) t_b up to one nonzero scalar.  support[r]
    lists the (a, b) whose coefficient is nonzero (mod p over F_p), for
    the first ``checked`` rows.  x * S holds the t-coordinates of x.
    """
    base = c.base
    ints = [cleared_rows([row])[1][0] for row in rows]
    section = _scaled_inverse(ints, base)
    _, blocks = _transported(c, ints[:checked], section)
    reduce = base.reduce_row
    support = []
    for block in blocks:
        pairs = []
        for a, entries in block.items():
            values = reduce([v for _, v in entries])
            pairs.extend((a, b) for (b, _), v in zip(entries, values) if v)
        support.append(pairs)
    return section, support


def _flag_basis(c: Coalgebra, stages):
    """(rows, degrees): integer rows T adapted to a flag of pure lattices, invertible over the fraction field.

    The rows of degree m lift a basis of V_m / V_{m-1}: the image of the
    basis B_m under the integral projection P_{m-1} (kernel V_{m-1}) is
    brought to Hermite form U * B_m * P_{m-1} = [H; 0], and the first
    rank H rows of U * B_m are the lifts.  Unit vectors off the pivot
    columns of the last stage complete the rows, with degree len(stages).
    """
    base, n = c.base, c.rank
    rows, degrees = [], []
    for m, v in enumerate(stages):
        if v.rank == len(rows):
            continue
        basis = Matrix(base, cleared_rows(v.basis.rows)[1], n)
        if rows:
            proj = Matrix(base, stages[m - 1].integral_projection(), n - len(rows))
            h, u = hnf(basis * proj)
            basis = Matrix(base, u.rows[: h.nrows], basis.nrows) * basis
        rows += basis.rows
        degrees += [m] * basis.nrows
    pivots = set(stages[-1].basis.pivot_columns())
    rows += [[int(i == j) for i in range(n)] for j in range(n) if j not in pivots]
    return rows, degrees + [len(stages)] * (n - len(degrees))


@dataclass(frozen=True)
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
    """The decomposition, once every component is checked pure and the sum direct and unimodular.

    The stacked component bases then form a basis t of C, and Delta in
    that basis decides the rest: component idx is a subcoalgebra when
    Delta of each of its rows has support inside idx x idx, and a
    group-like lies in component idx when its t-coordinates do.
    """
    parts = sorted(parts, key=lambda p: tuple(p[0]))
    for idx, (g, lat) in enumerate(parts):
        flag, witness = lat.is_pure()
        if not flag:
            raise AssertionError(f"component {idx} is impure (witness {witness})")
    decomposition = ComponentDecomposition(c, tuple((tuple(g), lat) for g, lat in parts))
    stacked = decomposition.stacked_basis()
    divs = elementary_divisors(stacked)
    # each Hermite basis is independent, so a dependent stack means some
    # component meets the sum of the others
    if len(divs) != stacked.nrows:
        raise AssertionError("components intersect nontrivially")
    if stacked.nrows != c.rank:
        raise AssertionError("components do not fill the coalgebra")
    if not all(c.ring.is_unit(d) for d in divs):
        raise AssertionError("stacked component basis is not unimodular")
    owner = [idx for idx, (_, lat) in enumerate(parts) for _ in range(lat.rank)]
    section, support = _adapted_support(c, stacked.rows, c.rank)
    leaky = {owner[r] for r, pairs in enumerate(support)
             if any({owner[a], owner[b]} != {owner[r]} for a, b in pairs)}
    # homes[j]: the components that the t-coordinates of the j-th group-like touch
    _, gs = cleared_rows([g for g, _ in parts])
    coords = Matrix(c.base, gs, c.rank) * Matrix(c.base, section, c.rank)
    homes = [{owner[a] for a, v in enumerate(row) if v} for row in coords.rows]
    for idx in range(len(parts)):
        if idx in leaky:
            raise AssertionError(f"component {idx} is not a subcoalgebra")
        if not homes[idx] <= {idx}:
            raise AssertionError(f"component {idx} misses its group-like")
        if any(home <= {idx} for j, home in enumerate(homes) if j != idx):
            raise AssertionError(f"component {idx} contains a second group-like")
    return decomposition


def _integer_kernel(mat: Matrix, ring) -> Lattice:
    """Kernel of a matrix over Z (or F_p), as a lattice over the ring: its span over Q or Z[S^-1].

    The integer Hermite rows of the kernel go straight to the boundary
    pass that makes them the canonical basis over the ring.
    """
    out = kernel_lattice(mat)
    if mat.ring == ring:
        return out
    return Lattice(ring, mat.nrows, from_integer_hermite(ring, out.basis.rows, mat.nrows))


def wedge(d: Lattice, f: Lattice, c: Coalgebra) -> Lattice:
    """Wedge product: kernel of C -> C (x) C -> C/D (x) C/F.

    Both inputs must be pure subcoalgebra lattices; the quotient
    projections are then integral matrices and the kernel is pure.  The
    kernel is taken in integers, of Delta * (P_D (x) P_F) with rows and
    columns scaled by nonzero integers, and carried back to the ring;
    the canonical Hermite basis makes it the same lattice.
    """
    for name, lat in (("first", d), ("second", f)):
        if lat.ambient_rank != c.rank:
            raise AmbientMismatch(f"{name} wedge argument has wrong ambient rank")
        flag, witness = lat.is_pure()
        if not flag:
            raise NotPure(f"{name} wedge argument is impure (witness prime {witness})")
        if not is_subcoalgebra(lat, c):
            raise NotSubcoalgebra(f"{name} wedge argument is not a subcoalgebra")
    return _unchecked_wedge(d, f, c)


def _unchecked_wedge(d: Lattice, f: Lattice, c: Coalgebra) -> Lattice:
    """The wedge of two lattices already known to be pure subcoalgebras, unchecked."""
    left, right = d.integral_projection(), f.integral_projection()
    n = c.rank
    # row i is vec(P_D^T X_i P_F): row i of Delta * (P_D (x) P_F) up to scalars
    rows = [[v for row in sandwich(left, x, right, n) for v in row] for x in c.blocks]
    width = (n - d.rank) * (n - f.rank)
    out = _integer_kernel(Matrix(c.base, rows, width), c.ring)
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
    NotExhaustive (it would contradict pointedness).  V_0 is pure and is
    checked once to be a subcoalgebra; the wedge of two pure
    subcoalgebras is again one, so the stages skip ``wedge``'s argument
    checks, and the Filtration then validates every stage.  The
    validated filtration is held on c, so the wedges and the validation
    run once per coalgebra; a refusal holds nothing.
    """
    held = c._derived.get("filtration")
    if held is not None:
        return held
    v0 = _require_pure(pointed_group_likes(c, "coradical filtration needs a pointed coalgebra")).lattice()
    if not is_subcoalgebra(v0, c):
        raise AssertionError("the group-like span must be a subcoalgebra")
    stages = [v0]
    while stages[-1].rank < c.rank:
        if len(stages) > c.rank + 1:
            raise NotExhaustive("coradical filtration exceeded the rank bound")
        nxt = _unchecked_wedge(stages[-1], v0, c)
        if nxt == stages[-1]:
            raise NotExhaustive("coradical filtration stabilized below full rank")
        stages.append(nxt)
    filtration = c._derived["filtration"] = Filtration(c, stages)
    return filtration


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
    n = c.rank
    # row i is D * d * (Delta(e_i) - g (x) e_i - e_i (x) g) for g = a / d, in integers
    d, (a,) = cleared_rows([g])
    rows = [[d * v for v in stored_coordinates(c, e)] for e in Matrix.identity(ZZ, n).rows]
    for i, row in enumerate(rows):
        for j in range(n):
            row[j * n + i] -= c.denom * a[j]
            row[i * n + j] -= c.denom * a[j]
    pr = _integer_kernel(Matrix(c.base, rows, n * n), c.ring)
    v0 = Lattice.from_rows(c.ring, n, [list(g)])
    v1 = wedge(v0, v0, c)
    if v1.rank != v0.rank + pr.rank or v1 != v0.add(pr):
        raise AssertionError("stage one must split as coradical plus primitives")
    return pr


def _content_free(vector, d: int, base):
    """(E, d) for the element E / d with the common content divided out; mod p over F_p, where d is 1."""
    g = math.gcd(d, *vector)
    return base.reduce_row([v // g for v in vector]), d // g


def _dual_product(c: Coalgebra, x, y):
    """Product of x and y in the dual algebra on the stored blocks: entry i is x^T X_i y."""
    return c.ring.reduce_row(
        [sum(x[j] * sum(v * y[k] for k, v in entries) for j, entries in block.items()) for block in c.blocks]
    )


def _dual_action(c: Coalgebra, e):
    """Matrix of x -> (id (x) e) Delta(x) on the stored blocks: row i holds X_i e."""
    act = []
    for block in c.blocks:
        row = [0] * c.rank
        for j, entries in block.items():
            row[j] = sum(v * e[k] for k, v in entries)
        act.append(row)
    return act


def _lift_steps(n: int) -> int:
    """Iterations of e <- 3e^2 - 2e^3 that reach past the nilpotency index n."""
    return max(1, math.ceil(math.log2(max(2, n))) + 1)


def _interpolating_elements(gl: GroupLikeSet, base):
    """For each group-like g, (E, d) with E / d in the dual algebra taking 1 at g, 0 at the others.

    The group-like rows are cleared of denominators by their lcm C, and
    the columns of the resulting integer matrix M are the conditions.
    One Hermite elimination U * M = [H; 0] serves every group-like: the
    solution of y * H = C * e_g comes from one forward substitution on
    the triangular H, and y * U is the interpolating element.
    """
    m = len(gl)
    n = gl.coalgebra.rank
    scale = math.lcm(*(x.denominator for g in gl for x in g))
    vectors = [[x.numerator * (scale // x.denominator) for x in g] for g in gl]
    h, u = hnf(Matrix(base, [[g[k] for g in vectors] for k in range(n)], m))
    if h.nrows != m:
        raise AssertionError("character interpolation must be solvable over the field")
    out = []
    for idx in range(m):
        coeffs, q = [], 1
        for j in range(m):
            num = (scale * q if j == idx else 0) - sum(c * row[j] for c, row in zip(coeffs, h.rows))
            piv = h.rows[j][j]
            coeffs = [c * piv for c in coeffs] + [num]
            q *= piv
        e = [0] * n
        for c, urow in zip(coeffs, u.rows):
            if c:
                e = [x + c * y for x, y in zip(e, urow)]
        out.append(_content_free(e, q, base))
    return out


def _lifted_idempotent(c: Coalgebra, e, d: int):
    """(E, d) for the idempotent that e / d lifts to along the nilpotent radical of the dual algebra.

    e / d <- 3 (e / d)^2 - 2 (e / d)^3 until (e / d)^2 = e / d, where a
    product of x / a and y / b on the stored blocks is (x * y) / (D a b);
    the iteration fixes an idempotent, so stopping early changes nothing.
    """
    denom = c.denom
    for _ in range(_lift_steps(c.rank) + 1):
        e2 = _dual_product(c, e, e)
        if e2 == [denom * d * v for v in e]:
            return e, d
        e3 = _dual_product(c, e2, e)
        lifted = [3 * denom * d * a - 2 * b for a, b in zip(e2, e3)]
        e, d = _content_free(lifted, denom**2 * d**3, c.base)
    raise AssertionError("idempotent lifting did not converge")


def components(c: Coalgebra) -> ComponentDecomposition:
    """Decomposition of a pointed coalgebra into irreducible components.

    For each group-like g the primitive idempotent e_g of the dual
    algebra over the fraction field is obtained by solving the character
    interpolation problem and lifting along the nilpotent radical with
    the iteration e <- 3e^2 - 2e^3; the component is the integral part
    of the eigenspace of the dual action of e_g.  All of it runs in
    integers, on the stored blocks of D * Delta with e held as an integer
    vector E over one common denominator d (d = 1 over F_p).  The
    validated decomposition is held on c, so the lift and the validation
    run once per coalgebra; a refusal holds nothing.
    """
    held = c._derived.get("components")
    if held is not None:
        return held
    gl = _require_pure(pointed_group_likes(c, "component decomposition needs a pointed coalgebra"))
    n = c.rank
    if n == 0:
        return ComponentDecomposition(c, ())
    parts = []
    for g, (e, d) in zip(gl.vectors, _interpolating_elements(gl, c.base)):
        e, d = _lifted_idempotent(c, e, d)
        # act(e / d) - 1 is (act(E) - D d) / (D d) on the stored blocks
        act = _dual_action(c, e)
        for i in range(n):
            act[i][i] -= c.denom * d
        parts.append((tuple(g), _integer_kernel(Matrix(c.base, act, n), c.ring)))
    decomposition = c._derived["components"] = _validated_decomposition(c, parts)
    return decomposition


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
    coalgebra endomorphism with image the group-like span.  The
    decomposition is the one ``components`` holds on c; the retraction
    is checked as a coalgebra map, an idempotent, a projection onto the
    coradical and a map fixing the group-likes on every call.
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
            image_rows.append(ring.reduce_row([eps * x for x in g]))
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
    """Whether the coradical retractions commute with the map.

    An endomorphism (codomain equal to domain) needs only one retraction.
    """
    f.require_valid()
    r_dom = split_coradical(f.domain)
    r_cod = r_dom if f.codomain == f.domain else split_coradical(f.codomain)
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

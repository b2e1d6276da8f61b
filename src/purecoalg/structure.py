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
  until stabilization.  The lift starts from the interpolating elements,
  read off the section of the pure group-like span, and runs in
  integers for every ring, on one ``dual_columns`` table of D * Delta,
  with an idempotent held as an integer vector over one common
  denominator (residues mod p over F_p);
* the natural retraction of C onto its coradical, x -> sum_g e_g(x) * g
  for the primitive idempotents e_g of the dual algebra, one Matrix
  product: on each component it is x -> eps(x) * g.

Each answer is found by one algorithm and decided by one certifier: a
Filtration is checked at construction (pure subcoalgebra stages that
increase and satisfy Delta(V_n) <= sum V_{n-i} (x) V_i), and a computed
one that it refuses is an AssertionError; a component decomposition has
parts whose stacked bases form a unimodular basis of C, so each is
pure, and each a subcoalgebra holding its own group-like and no other.
These two checks and ``is_subcoalgebra`` all read the subcoalgebra,
compatibility and membership conditions off the support of Delta in
one basis adapted to the flag, to the direct sum or to the one-stage
flag [V] (``coalgebra._adapted_support``): Delta is carried into that
basis once, in integers, and only which coefficients are nonzero is
read.  Nothing is built in the n^2-dimensional C (x) C.

The coradical filtration and the component decomposition are each built
and checked once per coalgebra and held on it (``Coalgebra._derived``):
repeated calls read them back.  The decomposition is held with its
coradical lattice and the idempotents it was carved out with, and
``split_coradical`` builds its retraction from those.  A map holds the
filtration it last pushed with the certified push, so pushing the same
filtration object along the same map builds and checks it once.  A call
that raises holds nothing, and the next call runs every check again.  A
retraction is built and checked on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coalgebra import (
    Coalgebra,
    CoalgebraMap,
    _adapted_support,
    _flag_basis,
    dual_columns,
    dual_times,
    is_subcoalgebra,
    sandwich,
    stored_coordinates,
    tensor,
    validate_map,
)
from .errors import (
    AmbientMismatch,
    NotGroupLike,
    NotIrreducible,
    NotPure,
    NotSubcoalgebra,
    RingMismatch,
    ValidationError,
)
from .grouplike import GroupLikeSet, group_likes, pointed_group_likes
from .lattice import Lattice, kernel_lattice
from .matrix import Matrix, _fractions, elementary_divisors
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

    It certifies every computed filtration whose stages V'_m contain
    V'_{m-1} ^ V_0, V_0 the certified coradical: as the stages increase,
    compatibility puts Delta(V'_m) in V'_{m-1} (x) C + C (x) V_0, so
    V'_m <= V'_{m-1} ^ V_0 and by induction every stage is exact.
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
        # the checks run on the pure prefix; a subcoalgebra failure below
        # the first impure stage is reported ahead of it
        impure = next((idx for idx, v in enumerate(stages) if not v.is_pure()[0]), len(stages))
        prefix = stages[:impure]
        incompatible = None
        if prefix and prefix[-1].rank:
            rows, deg = _flag_basis(coalgebra, prefix)
            for r, pairs in enumerate(_adapted_support(coalgebra, rows, prefix[-1].rank)[1]):
                for s, t in pairs:
                    if max(deg[s], deg[t]) > deg[r]:
                        raise NotSubcoalgebra(f"filtration stage {deg[r]} is not a subcoalgebra")
                    if incompatible is None and deg[s] + deg[t] > deg[r]:
                        incompatible = deg[r]
        if impure < len(stages):
            raise NotPure(f"filtration stage {impure} is not pure (witness prime {stages[impure].is_pure()[1]})")
        if incompatible is not None:
            raise ValidationError(f"Delta is not compatible with filtration stage {incompatible}")
        self.coalgebra = coalgebra
        self.stages = tuple(stages)

    @property
    def length(self) -> int:
        return len(self.stages)

    @property
    def stage_ranks(self) -> tuple[int, ...]:
        return tuple([v.rank for v in self.stages])

    @property
    def exhaustive(self) -> bool:
        return self.stages[-1].rank == self.coalgebra.rank

    def graded_ranks(self) -> tuple[int, ...]:
        ranks = self.stage_ranks
        return (ranks[0],) + tuple([b - a for a, b in zip(ranks, ranks[1:])])


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
        """Span of the group-likes: the one lattice that the coalgebra's certified group-likes hold."""
        return group_likes(self.coalgebra).span

    def stacked_basis(self) -> Matrix:
        rows = []
        for _, lat in self.parts:
            rows.extend(lat.basis.rows)
        return Matrix(self.coalgebra.ring, rows, self.coalgebra.rank)


def _validated_decomposition(c: Coalgebra, parts) -> ComponentDecomposition:
    """The decomposition, once the stacked component bases are checked independent, full and unimodular.

    Those bases then form a basis t of R^n, so C is the direct sum of the
    components, and each is pure: a direct summand N of R^n meets r*R^n
    in r*N.  Delta in that basis decides the rest: component idx is a
    subcoalgebra when Delta of each of its rows has support inside
    idx x idx, and a group-like lies in component idx when its
    t-coordinates do.  Given one part per certified group-like, that
    proves them the components: in a pointed coalgebra a subcoalgebra
    with one group-like is irreducible.
    """
    parts = sorted(parts, key=lambda p: tuple(p[0]))
    decomposition = ComponentDecomposition(c, tuple([(tuple(g), lat) for g, lat in parts]))
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


def wedge(d: Lattice, f: Lattice, c: Coalgebra) -> Lattice:
    """Wedge product: kernel of C -> C (x) C -> C/D (x) C/F.

    Both inputs must be pure subcoalgebra lattices; the quotient
    projections are then integral matrices and the kernel is pure.  The
    kernel is taken in integers, of Delta * (P_D (x) P_F) with rows and
    columns scaled by nonzero integers, and carried back to the ring;
    the canonical Hermite basis makes it the same lattice.  Nothing else
    certifies this answer, so it is checked to contain both arguments.
    """
    for name, lat in (("first", d), ("second", f)):
        if lat.ambient_rank != c.rank:
            raise AmbientMismatch(f"{name} wedge argument has wrong ambient rank")
        flag, witness = lat.is_pure()
        if not flag:
            raise NotPure(f"{name} wedge argument is impure (witness prime {witness})")
        if not is_subcoalgebra(lat, c):
            raise NotSubcoalgebra(f"{name} wedge argument is not a subcoalgebra")
    out = _unchecked_wedge(d, f, c)
    if not (out.contains_lattice(d) and out.contains_lattice(f)):
        raise AssertionError("wedge must contain both arguments")
    return out


def _unchecked_wedge(d: Lattice, f: Lattice, c: Coalgebra) -> Lattice:
    """The wedge of two lattices already known to be pure subcoalgebras, uncertified."""
    left, right = d.integral_projection(), f.integral_projection()
    n = c.rank
    # row i is vec(P_D^T X_i P_F): row i of Delta * (P_D (x) P_F) up to scalars
    rows = [[v for row in sandwich(left, x, right) for v in row] for x in c.blocks]
    width = (n - d.rank) * (n - f.rank)
    return kernel_lattice(Matrix(c.base, rows, width), c.ring)


def _computed_filtration(c: Coalgebra, stages) -> Filtration:
    """Filtration(c, stages) for stages the package computed: a refusal is the finder's fault, an AssertionError."""
    try:
        return Filtration(c, stages)
    except (ValidationError, NotPure, NotSubcoalgebra, AmbientMismatch) as exc:
        raise AssertionError(f"computed filtration refused: {exc}") from exc


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
    return _require_pure(group_likes(c)).span


def coradical_filtration(c: Coalgebra) -> Filtration:
    """The pure coradical filtration of a pointed coalgebra.

    V_0 is the group-like span and V_{n+1} = V_n ^ V_0; the chain must
    reach the full lattice, and a stall below full rank or past the rank
    bound is an AssertionError (it would contradict pointedness, so the
    finder is at fault).  V_0, the pure span
    of exactly verified group-likes, is a subcoalgebra, and so is the
    wedge of two pure subcoalgebras, so the stages skip ``wedge``'s
    checks; the Filtration certifies every stage, stage 0 included.  It
    is held on c, so the wedges and the validation run once per
    coalgebra; a refusal holds nothing.
    """
    held = c._derived.get("filtration")
    if held is not None:
        return held
    v0 = _require_pure(pointed_group_likes(c, "coradical filtration needs a pointed coalgebra")).span
    stages = [v0]
    while stages[-1].rank < c.rank:
        if len(stages) > c.rank + 1:
            raise AssertionError("coradical filtration exceeded the rank bound")
        nxt = _unchecked_wedge(stages[-1], v0, c)
        if nxt == stages[-1]:
            raise AssertionError("coradical filtration stabilized below full rank")
        stages.append(nxt)
    filtration = c._derived["filtration"] = _computed_filtration(c, stages)
    return filtration


def primitives(c: Coalgebra, g) -> Lattice:
    """Primitive elements relative to the unique group-like g.

    These are the solutions of Delta(x) = g (x) x + x (x) g; together
    with the group-like line they exhaust stage one of the coradical
    filtration, which is verified before returning; that check also
    certifies the uncertified wedge of the group-like line with itself.
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
    pr = kernel_lattice(Matrix(c.base, rows, n * n), c.ring)
    v0 = gl.span
    v1 = _unchecked_wedge(v0, v0, c)
    if v1.rank != v0.rank + pr.rank or v1 != v0.add(pr):
        raise AssertionError("stage one must split as coradical plus primitives")
    return pr


def _content_free(vector, d: int, base):
    """(E, d) for the element E / d with the common content divided out; mod p over F_p, where d is 1."""
    g = math.gcd(d, *vector)
    return base.reduce_row([v // g for v in vector]), d // g


def _dual_action(columns, e):
    """D times the matrix of x -> (id (x) e) Delta(x): row t holds X_t e, read off the ``dual_columns``."""
    n = len(columns)
    act = [[0] * n for _ in range(n)]
    for b, eb in enumerate(e):
        if eb:
            for a, entries in columns[b].items():
                for t, v in entries:
                    act[t][a] += v * eb
    return act


def _lift_steps(n: int) -> int:
    """Iterations of e <- 3e^2 - 2e^3 that reach past the nilpotency index n."""
    return max(1, math.ceil(math.log2(max(2, n))) + 1)


def _interpolating_elements(gl: GroupLikeSet, base):
    """For each group-like g, (E, d) with E / d in the dual algebra taking 1 at g, 0 at the others.

    The group-like rows G are a basis of their pure span, so with T the
    span's section (B * T = I for its Hermite basis B) the matrix
    C = G * T is invertible over the ring, and G * T * C^-1 = I: column g
    of T * C^-1 is the interpolating element of g, cleared of
    denominators.
    """
    span = gl.span
    if span.rank != len(gl):
        raise AssertionError("character interpolation must be solvable over the field")
    t = span.section()
    e = t * (Matrix(span.ring, gl.vectors, span.ambient_rank) * t).inverse()
    out = []
    for col in e.transpose().rows:
        d, (vec,) = cleared_rows([col])
        out.append(_content_free(vec, d, base))
    return out


def _lifted_idempotent(c: Coalgebra, e, d: int, columns):
    """(E, d) for the idempotent that e / d lifts to along the nilpotent radical of the dual algebra.

    e / d <- 3 (e / d)^2 - 2 (e / d)^3 until (e / d)^2 = e / d, where a
    product of x / a and y / b is ``dual_times(columns, x, y)`` / (D a b);
    the iteration fixes an idempotent, so stopping early changes nothing.
    """
    denom, reduce_row = c.denom, c.ring.reduce_row
    for _ in range(_lift_steps(c.rank) + 1):
        e2 = reduce_row(dual_times(columns, e, e))
        if e2 == [denom * d * v for v in e]:
            return e, d
        e3 = reduce_row(dual_times(columns, e2, e))
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
    integers, on one ``dual_columns`` table of D * Delta with e held as
    an integer vector E over one common denominator d (d = 1 over F_p).
    The validated decomposition is held on c, so the lift and the
    validation run once per coalgebra; it is held in one entry with its
    coradical lattice and the idempotents (g, E, d), which
    ``split_coradical`` reads.  A refusal holds nothing.
    """
    held = c._derived.get("components")
    if held is not None:
        return held[0]
    gl = _require_pure(pointed_group_likes(c, "component decomposition needs a pointed coalgebra"))
    n = c.rank
    if n == 0:
        return ComponentDecomposition(c, ())
    columns = dual_columns(c)
    parts, idempotents = [], []
    for g, (e, d) in zip(gl.vectors, _interpolating_elements(gl, c.base)):
        e, d = _lifted_idempotent(c, e, d, columns)
        # act(e / d) - 1 is (act(E) - D d) / (D d)
        act = _dual_action(columns, e)
        for i in range(n):
            act[i][i] -= c.denom * d
        g = tuple(g)
        parts.append((g, kernel_lattice(Matrix(c.base, act, n), c.ring)))
        idempotents.append((g, tuple(e), d))
    decomposition = _validated_decomposition(c, parts)
    c._derived["components"] = (decomposition, decomposition.coradical(), tuple(idempotents))
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
            raise AssertionError("wedge iteration failed to stabilize within the rank bound")
        parts.append((tuple(g), cur))
    return _validated_decomposition(c, parts)


def split_coradical(c: Coalgebra) -> CoalgebraMap:
    """Natural retraction of C onto its coradical.

    The retraction is x -> sum_g e_g(x) * g for the primitive idempotents
    e_g of the dual algebra: e_g is the counit on the component of g and
    zero on the others, so on each irreducible component this is
    x -> eps(x) * g.  With e_g = E_g / d_g as ``components`` holds it,
    row i is sum_g (E_g[i] / d_g) * g, so r = E * G for the n x m matrix
    E whose column g is E_g / d_g and the group-like rows G: one Matrix
    product, formed in integers (residues mod p over F_p).  Every call
    certifies it as a coalgebra map that fixes the group-likes and has
    the held coradical as image; each row of r then lies in the span of
    the group-likes, which r fixes, so r is idempotent.
    """
    components(c)
    ring = c.ring
    n = c.rank
    if n == 0:
        return CoalgebraMap(c, c, Matrix(ring, [], 0))
    _, coradical, idempotents = c._derived["components"]
    if c.base == ring:
        # over Z an integral decomposition makes every e_g integral, and over F_p d_g is 1
        if any(d != 1 for _, _, d in idempotents):
            raise AssertionError("the component idempotents must be integral")
        columns = [e for _, e, _ in idempotents]
    else:
        columns = [_fractions(e, d) for _, e, d in idempotents]
    gs = Matrix(ring, [g for g, _, _ in idempotents], n)
    r = Matrix(ring, columns, n).transpose() * gs
    retraction = CoalgebraMap(c, c, r)
    bad = validate_map(retraction).first_failure()
    if bad is not None:
        raise AssertionError(f"coradical retraction failed validation: {bad}")
    if gs * r != gs:
        raise AssertionError("retraction must fix the group-likes")
    if Lattice.from_rows(ring, n, r.rows) != coradical:
        raise AssertionError("retraction image must be the coradical")
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
    is asserted stage by stage.  Summed over n it gives
    rank U_top = rank C_top * rank D_top, so the result is exhaustive
    exactly when both inputs are.
    """
    c, d = fc.coalgebra, fd.coalgebra
    if c.ring != d.ring:
        raise RingMismatch(f"{c.ring} vs {d.ring}")
    product = tensor(c, d)
    top = (fc.length - 1) + (fd.length - 1)
    stages = []
    for n in range(top + 1):
        pairs = dict.fromkeys([(min(i, fc.length - 1), min(n - i, fd.length - 1)) for i in range(n + 1)])
        rows = [row for a, b in pairs for row in fc.stages[a].basis.kron(fd.stages[b].basis).rows]
        stages.append(Lattice.from_rows(c.ring, product.rank, rows))
    filt = _computed_filtration(product, stages)
    graded_c, graded_d, graded_u = fc.graded_ranks(), fd.graded_ranks(), filt.graded_ranks()
    for n in range(top + 1):
        expected = sum(graded_c[i] * graded_d[n - i] for i in range(n + 1)
                       if i < len(graded_c) and n - i < len(graded_d))
        if graded_u[n] != expected:
            raise AssertionError(f"tensor filtration graded rank mismatch at stage {n}")
    return filt


def push_filtration(f: CoalgebraMap, v: Filtration) -> Filtration:
    """Purified image filtration on the codomain.

    Stages are the saturations of the stagewise images; purification
    keeps both the subcoalgebra property and the wedge compatibility, so
    the result validates as a filtration of the image subcoalgebra.
    The map holds the pair (v, push) for the last filtration it pushed:
    a call with that same filtration object returns the held push, and
    a call with any other one is pushed, certified and replaces the
    pair.  A refusal holds nothing.
    """
    held = f._pushed
    if held is not None and held[0] is v:
        return held[1]
    f.require_valid()
    if v.coalgebra != f.domain:
        raise AmbientMismatch("filtration does not live on the domain of the map")
    ring, n = f.domain.ring, f.codomain.rank
    stages = [Lattice.from_rows(ring, n, (stage.basis * f.matrix).rows).saturate() for stage in v.stages]
    pushed = _computed_filtration(f.codomain, stages)
    f._pushed = (v, pushed)
    return pushed

"""Independent verification machinery.

Everything here checks the relation-polynomial presentations from first
principles: direct substitution into the localized differential ring, kernels
by elimination and by syzygy preimages, point counts over finite fields by
an enumeration that drops a partial point at the first kernel generator not
vanishing on it, and Hilbert dimensions computed two unrelated ways.  No
check trusts the construction it is checking.

The span side of `verify_theorem2` and the circuit span of
`verify_minimal` are the Grassmann-degree pieces of an ideal, built one
degree from the last (`_grassmann_chain`): the degree-r piece is spanned
by the u_j multiples of the degree-(r-1) basis and the generators of
degree r.  A presentation carries its own chain (`Presentation.bases`),
built only as far as a check asks; since the instance context keeps the
presentations, each check on an arrangement extends what an earlier one
built.  The kernel side stays the independent derivation: elimination,
then preimages.  `verify_lemma7` reads the P_{L,S} of the circuit
presentation that `verify_theorem2` checks and builds each Q_{L,S} anew
from dL and dz_S.

Each of these checks is one pass over the degrees.  A `verify_theorem2`
degree fails exactly when its two reduced bases differ, and only then is
anything reduced, to name the witness.  `verify_minimal` reduces the
all-family generators of each degree modulo the circuit chain, and every
u_B multiple once some degree has failed.  `verify_lemma7` divides each
Q_{L,S} by the u_B multiples of its own circuit's P_{L,T}; a zero
remainder proves membership, and only a nonzero one builds that
circuit's chain, whose normal form names the witness.

`hilbert` counts standard monomials and takes the rank of the images.
For the commutative ring over Q the rank is bounded first.  Once every
kernel generator maps to zero under `eval_h` (the certificate), the
standard count is an upper bound; the rank mod 2^61 - 1 of the images'
values at as many random points is a lower bound.  Where the two meet
that is the rank; every other degree, and every table over F_p, F_2 or of
the odd ring, takes the exact rank of the images (`_rank_dimension`).

The substitutions of one call group (one degree of the `hilbert` rank step,
or one `verify_charts` call) share the forms, the dx expansions of the dz
wedges and the products of form powers built so far.  Each substitution
puts its terms over its own denominator, one power per form it needs, so
a chart generator's products hold only the forms its terms mention; the
rank step gives every form of every image one shared power instead, so
that the images are vectors in one column space.  That state lives only
as long as the call; it is not kept in the instance context, to bound
peak memory.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import linalg
from .arrangement import (
    Arrangement,
    Flat,
    distinct_relations,
    field_points,
    flats,
    restrict_to_flat,
)
from .caps import Caps
from .context import instance_context
from .fields import FieldError, PrimeField
from .groebner import eliminate, groebner_ideal, ideal_equal, normal_form
from .modules import (
    IndexedBasis,
    module_groebner,
    module_normal_form,
    module_preimage,
    module_spair_remainders,
)
from .polynomials import MAX_EXPONENT, Polynomial, PolyRing, mono_pairs
from .relations import (
    _chart_poly_ring,
    chart_ring,
    commutative_generators,
    p_of_L,
    q_of_LS,
    super_generators,
    t_ring,
    t_monomial,
)
from .superalg import DX, DZ, ExtElement, ext_mul, ext_mul_monomial, merge_subsets


# -- reports ------------------------------------------------------------------


@dataclass
class Report:
    """Outcome of one verification; serializes to the JSON report schema."""

    check: str
    instance: str
    status: str
    witnesses: list = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "details": self.details,
        }


def instance_label(arr: Arrangement) -> str:
    tag = f"p{arr.field.char}" if arr.field.char else "q"
    vecs = ";".join(
        ",".join(arr.field.fmt(x) for x in row) for row in arr.forms
    )
    return f"{tag}_n{arr.n}_m{arr.m}_{vecs}"


# -- the ambient differential ring and the substitution maps ------------------


@lru_cache(maxsize=None)
def _x_ring(field, n: int) -> PolyRing:
    return PolyRing(field, tuple(f"x{i}" for i in range(n, 0, -1)))


def x_ring(arr: Arrangement) -> PolyRing:
    return _x_ring(arr.field, arr.n)


def _forms_in(ring: PolyRing, arr: Arrangement):
    """The forms z_1..z_m as polynomials in the x variables of `ring`."""
    zero = arr.field.zero
    return [
        ring.poly({ring.mono({f"x{k}": 1}): c
                   for k, c in enumerate(row, start=1) if c != zero})
        for row in arr.forms
    ]


def z_polynomials(arr: Arrangement):
    """The forms as polynomials in the x-ring."""
    return _forms_in(x_ring(arr), arr)


@dataclass(frozen=True)
class LocalizedOmega:
    """numerator / (z_1^den[0] ... z_m^den[m-1]) inside F[x] tensor Lambda[dx].

    `den` holds one exponent per form: 0 for a form on the flat of a
    chart, which is not inverted, and for a form that no term needs,
    unless the caller sets a floor for every off-flat form (`_substitute`).
    Zero testing is full expansion of the numerator; nothing is factored.
    """

    numerator: ExtElement
    den: tuple

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __str__(self):
        factors = "*".join(f"z{k}^{e}" for k, e in enumerate(self.den, 1) if e)
        return f"({self.numerator}) / ({factors or 1})"


def wedge_expand(field, rows, labels):
    """Expansion of a wedge of covectors in the coordinate exterior basis.

    `rows` are coefficient vectors over `labels`; the result maps ascending
    label subsets to the minor-determinant coefficients.
    """
    acc = {(): field.one}
    for row in rows:
        nxt: dict = {}
        for subset, c in acc.items():
            for pos, x in enumerate(row):
                if x == field.zero:
                    continue
                lab = labels[pos]
                sign, merged = merge_subsets(subset, (lab,))
                if sign == 0:
                    continue
                val = field.mul(c, x)
                if sign < 0:
                    val = field.neg(val)
                got = field.add(nxt.get(merged, field.zero), val)
                if got == field.zero:
                    nxt.pop(merged, None)
                else:
                    nxt[merged] = got
        acc = nxt
        if not acc:
            break
    return acc


class _SharedSubstitution:
    """What the substitutions of one call group share.

    A call group is one degree of the `hilbert` rank step or one
    `verify_charts` call.  It shares the forms as x-polynomials, the wedge
    expansion of each exterior label, and the products of form powers built
    so far.  The caller makes it and drops it with the call; it is not kept
    in the instance context, where the products of a whole instance would
    raise the peak memory.

    `unkept` products at the head of each product's suffix chain are not
    kept (see `product`).  The rank step sets it to 2: the exponents of its
    images of one exterior label have one sum, so an image's product and
    the product of its rest each belong to that image alone.
    """

    __slots__ = ("arr", "target", "forms", "x_labels", "expansions",
                 "products", "unkept")

    def __init__(self, arr: Arrangement, unkept: int = 0):
        self.arr = arr
        self.target = x_ring(arr)
        self.forms = z_polynomials(arr)
        self.x_labels = tuple(range(1, arr.n + 1))
        self.expansions: dict = {}
        self.products: dict = {(0,) * arr.m: self.target.one()}
        self.unkept = unkept

    def expansion(self, s):
        """dz_s expanded in the dx basis."""
        got = self.expansions.get(s)
        if got is None:
            rows = [self.arr.form(i) for i in s]
            got = self.expansions[s] = wedge_expand(self.arr.field, rows,
                                                    self.x_labels)
        return got

    def product(self, exps, unkept: int = 0) -> Polynomial:
        """z_1^exps[0] * ... * z_m^exps[m-1].

        The power of the first form with a nonzero exponent times the
        product of the rest, both looked up here, so every suffix of a
        product and every power of a form is memoized on the way.  The
        first `unkept` products of that suffix chain, this one first, are
        built but not kept.
        """
        got = self.products.get(exps)
        if got is None:
            k = next(i for i, e in enumerate(exps) if e)
            rest = (0,) * (k + 1) + exps[k + 1:]
            if any(rest):
                head = exps[:k + 1] + (0,) * (len(exps) - k - 1)
                got = self.product(head) * self.product(rest,
                                                        max(unkept - 1, 0))
            else:
                lower = exps[:k] + (exps[k] - 1,) + exps[k + 1:]
                got = self.forms[k] * self.product(lower)
            if not unkept:
                self.products[exps] = got
        return got


def _substitute(shared: _SharedSubstitution, flat, ring: PolyRing,
                terms, min_den: int = 0) -> LocalizedOmega:
    """The one substitution core behind eval_h, eval_psi and eval_chart.

    Off the flat t_i -> 1/z_i(x) and u_i -> dz_i(x)/z_i(x); on it
    z_j -> z_j(x) and dz_j -> dz_j(x).  `terms` yields the (exterior
    index tuple, monomial, coefficient) of each term over `ring`, whose
    variables are t_i off the flat and z_j on it.

    Each off-flat form z_k gets its own exponent N_k: the largest power of
    z_k any term needs (its t_k exponent, plus one for u_k), and at least
    `min_den`.  A term needing z_k^e_k is multiplied by the product of the
    z_k^(N_k - e_k), so a form no term needs stays out of every product.
    Over one shared exponent N = max N_k the numerator would only gain the
    nonzero factor prod z_k^(N - N_k), and F[x] (x) Lambda[dx] is free
    over the domain F[x], so `is_zero` answers the same.
    """
    m = shared.arr.m
    off = [(i - 1, ring.shift_of(f"t{i}"))
           for i in range(1, m + 1) if i not in flat]
    on = [(j - 1, ring.shift_of(f"z{j}")) for j in sorted(flat)]
    pieces = []
    top = [min_den] * len(off)
    for s, mono, c in terms:
        need = [((mono >> sh) & MAX_EXPONENT) + (k + 1 in s)
                for k, sh in off]
        top = list(map(max, top, need))
        pieces.append((s, c, need, mono))
    out: dict = {}
    for s, c, need, mono in pieces:
        vec = [0] * m
        for (k, _), e, n in zip(off, need, top):
            vec[k] = n - e
        for k, sh in on:
            vec[k] = (mono >> sh) & MAX_EXPONENT
        prod = shared.product(tuple(vec), shared.unkept)
        for subset, coeff in shared.expansion(s).items():
            out.setdefault(subset, []).append((c * coeff, prod))
    field = shared.arr.field
    numerator = {s: _combination(field, terms) for s, terms in out.items()}
    den = [0] * m
    for (k, _), n in zip(off, top):
        den[k] = n
    return LocalizedOmega(ExtElement(shared.target, numerator, DX), tuple(den))


def _combination(field, terms) -> Polynomial:
    """The sum of c * p over the (c, p) pairs of `terms`.

    Over F_p a c may be any int of its residue class: the products are
    summed as ints and reduced once per monomial.
    """
    c, p = terms[0]
    if len(terms) == 1:
        return p.scale(c)
    if field.char == 2:
        keys = set(p._d)
        for _, p in terms[1:]:
            keys.symmetric_difference_update(p._d)
        return Polynomial(p.ring, dict.fromkeys(keys, 1))
    acc: dict = {}
    get = acc.get
    for c, p in terms:
        for mono, x in p._d.items():
            acc[mono] = get(mono, 0) + c * x
    return p.ring.poly(acc)


def _poly_terms(f: Polynomial):
    """The terms of a polynomial as exterior-degree-0 substitution terms."""
    return (((), mono, c) for mono, c in f._d.items())


def eval_h(arr: Arrangement, f: Polynomial) -> LocalizedOmega:
    """Substitute t_i -> 1/z_i and clear to the common denominator."""
    return _substitute(_SharedSubstitution(arr), (), f.ring, _poly_terms(f))


def eval_psi(arr: Arrangement, xi: ExtElement) -> LocalizedOmega:
    """Substitute t_i -> 1/z_i, u_i -> dz_i/z_i; expand dz into dx."""
    return _substitute(_SharedSubstitution(arr), (), xi.ring,
                       xi.label_terms())


def eval_chart(arr: Arrangement, flat: Flat, element,
               shared: _SharedSubstitution | None = None) -> LocalizedOmega:
    """Direct substitution of a chart element into the localized target.

    t_i -> 1/z_i(x), u_i -> dz_i(x)/z_i(x) outside the flat; z_j -> z_j(x),
    dz_j -> dz_j(x) on it.  Only the outside forms are inverted.  `shared`
    is the state of the caller's call group, made anew when not given.
    """
    terms = (_poly_terms(element) if isinstance(element, Polynomial)
             else element.label_terms())
    return _substitute(shared or _SharedSubstitution(arr), flat.indices,
                       element.ring, terms)


# -- kernels from first principles ---------------------------------------------


def _elimination_kernel(arr: Arrangement, flat, target: PolyRing):
    """Kernel of t_i -> 1/z_i(x) off the flat and z_j -> z_j(x) on it, in
    the ring `target`: eliminate the x's from (z_i t_i - 1) and (z_j - z_j(x))."""
    xs = x_ring(arr).variables
    big = PolyRing(arr.field, xs + target.variables)
    zs = _forms_in(big, arr)
    gens = [zs[i - 1] * big.variable(f"t{i}") - big.one()
            for i in range(1, arr.m + 1) if i not in flat]
    gens += [big.variable(f"z{j}") - zs[j - 1] for j in flat]
    return eliminate(gens, set(xs), subring=target)


def kernel_I(arr: Arrangement):
    """Generators of Ker(h) by eliminating the x's from (z_i t_i - 1)."""
    return _elimination_kernel(arr, (), t_ring(arr))


def _instance_kernel(arr: Arrangement):
    """kernel_I(arr) as a tuple, computed once per instance context."""
    ctx = instance_context(arr)
    if ctx.kernel is None:
        ctx.kernel = tuple(kernel_I(arr))
    return ctx.kernel


def _dz_expansion(arr: Arrangement, indices):
    """dz_I in the basis dz_{I'}, I' inside the chosen basis indices."""
    coords = arr.basis_coordinates()
    rows = [coords[i - 1] for i in indices]
    return wedge_expand(arr.field, rows, arr.basis_indices)


def degree_module_columns(arr: Arrangement, r: int):
    """(index subsets, columns t_I * expansion(dz_I)) for Grassmann degree r."""
    ring = t_ring(arr)
    subsets = list(itertools.combinations(range(1, arr.m + 1), r))
    columns = []
    for I in subsets:
        tI = t_monomial(ring, I)
        entries = {
            sub: tI.scale(c) for sub, c in _dz_expansion(arr, I).items()
        }
        columns.append(ExtElement(ring, entries, DZ))
    return subsets, columns


def degree_module_relations(arr: Arrangement, r: int):
    """Generators g * e_{I'} of the relation submodule in degree r."""
    ring = t_ring(arr)
    igens = _instance_kernel(arr)
    out = []
    for I_prime in itertools.combinations(arr.basis_indices, r):
        for g in igens:
            out.append(ExtElement(ring, {I_prime: g}, DZ))
    return out


def kernel_K_degree(arr: Arrangement, r: int):
    """The reduced basis of the degree-r piece of Ker(psi), u-encoded.

    Up to the rank it is computed as the preimage of the relation submodule
    under the map sending the u-basis to t_I * dz_I, so the only upstream
    input is the elimination kernel; at r = 0 this reproduces it.  Beyond
    the rank every dz_I is zero, so the piece is everything of degree r.
    """
    ring = t_ring(arr)
    if r > arr.rank:
        return module_groebner([
            ExtElement(ring, {I: ring.one()})
            for I in itertools.combinations(range(1, arr.m + 1), r)])
    subsets, columns = degree_module_columns(arr, r)
    relmod = degree_module_relations(arr, r)
    rows = module_preimage(columns, relmod)
    return module_groebner([
        ExtElement(ring, {subsets[i]: p for i, p in row.items()})
        for row in rows])


def _u_multiples(gens, m: int, r: int):
    """The nonzero u_B * P_{L,S} of Grassmann degree r, lazily: the records
    `gens` in order and, for each, B over the (r - |S|)-subsets of 1..m."""
    for g in gens:
        k = len(g.subset)
        if k > r:
            continue
        for B in itertools.combinations(range(1, m + 1), r - k):
            prod = ext_mul_monomial(B, g.element) if B else g.element
            if not prod.is_zero():
                yield prod


def _grassmann_chain(gens, m: int, rmax: int, bases=None):
    """Reduced bases G_0..G_rmax of the Grassmann-degree pieces of the ideal
    that the nonzero, Grassmann-homogeneous elements `gens` generate.

    The ideal's degree-r piece is u_1 J_{r-1} + ... + u_m J_{r-1} plus the
    generators of degree r, so G_r is the reduced basis of the u_j * g for g
    in G_{r-1} together with those generators.  `bases` holds the G_0..G_k
    built so far; it is extended in place up to rmax and returned.
    """
    bases = [] if bases is None else bases
    by_degree: dict = {}
    for g in gens:
        by_degree.setdefault(g.grassmann_degrees()[0], []).append(g)
    for r in range(len(bases), rmax + 1):
        inputs = list(by_degree.get(r, ()))
        if r:
            inputs += [ext_mul_monomial((j,), g)
                       for g in bases[r - 1] for j in range(1, m + 1)]
        bases.append(module_groebner(inputs))
    return bases


def _presentation_bases(pres, rmax: int):
    """The chain `pres.bases` of an odd presentation, extended up to rmax."""
    gens = [g.element for g in pres.generators if not g.element.is_zero()]
    return _grassmann_chain(gens, pres.arrangement.m, rmax, pres.bases)


def _span_witness(pres, basis, rhs, r: int) -> str:
    """Names an element in one of two spans and not the other, given their
    reduced bases `basis` (of the presentation's degree-r piece) and `rhs`.

    Reduced bases are unique, so two different ones always have one.
    """
    for b in rhs:
        if not module_normal_form(b, basis).is_zero():
            return f"not in first span: {b}"
    m = pres.arrangement.m
    for a in _u_multiples(pres.generators, m, r):
        if not module_normal_form(a, rhs).is_zero():
            return f"not in second span: {a}"
    raise AssertionError("two different reduced bases span one module")


# -- instance-level theorem checks ---------------------------------------------


def verify_theorem1(arr: Arrangement) -> Report:
    """Elimination kernel against the commutative circuit generators."""
    label = instance_label(arr)
    ker = kernel_I(arr)
    pres = commutative_generators(arr)
    gens = [g.element for g in pres.generators]
    ok = ideal_equal(ker, gens)
    witnesses = []
    if not ok:
        witnesses.append({"kernel": [str(g) for g in ker],
                          "generators": [str(g) for g in gens]})
    return Report("theorem1", label, "pass" if ok else "fail", witnesses,
                  {"mode": pres.mode, "kernel_size": len(ker),
                   "generators": len(gens)})


def verify_theorem2(arr: Arrangement, rmax: int | None = None) -> Report:
    """Per-degree module equality of the circuit ideal and Ker(psi)."""
    label = instance_label(arr)
    rmax = arr.m if rmax is None else rmax
    pres = super_generators(arr)
    bases = _presentation_bases(pres, rmax)
    degrees = []
    witnesses = []
    ok = True
    for r in range(rmax + 1):
        rhs = kernel_K_degree(arr, r)  # a reduced basis already
        equal = bases[r] == rhs
        degrees.append({"r": r, "status": "pass" if equal else "fail"})
        if not equal:
            ok = False
            witnesses.append({"r": r,
                              "witness": _span_witness(pres, bases[r], rhs, r)})
    return Report("theorem2", label, "pass" if ok else "fail", witnesses,
                  {"mode": pres.mode, "degrees": degrees})


def verify_minimal(arr: Arrangement, caps: Caps | None = None) -> Report:
    """Circuit-generated families against the full enumerated families.

    Circuits normalize to the same Relation objects that the enumeration
    produces, so the circuit family is a subset of the full one and only the
    reverse containment needs reduction, degree by degree against the
    circuit chain G_r.  While every lower degree has passed, degree r
    reduces only the all-family generators P_{L,S} with |S| = r: a
    generator of lower degree lies in J_circ, and so do its u_B multiples.
    Once a degree has failed, every u_B multiple of degree r is reduced.
    A failing degree names the first element that does not reduce to zero.
    """
    if arr.field.char == 0:
        raise FieldError("minimality check enumerates relations over F_p")
    ok_i, witnesses = _minimal_ideal(arr, caps)
    sup_c = super_generators(arr)
    sup_a = super_generators(arr, "all", caps)
    circuit_keys = {g.element.sort_key() for g in sup_c.generators}
    todo = [g for g in sup_a.generators if not g.element.is_zero()
            and g.element.sort_key() not in circuit_keys]
    by_degree: dict = {}
    for g in todo:
        by_degree.setdefault(len(g.subset), []).append(g)
    degrees = []
    failed = False
    for r in range(arr.m + 1):
        gens = todo if failed else by_degree.get(r, ())
        witness = None
        if gens:
            basis = _presentation_bases(sup_c, r)[r]
            witness = next((c for c in _u_multiples(gens, arr.m, r)
                            if not module_normal_form(c, basis).is_zero()),
                           None)
        degrees.append({"r": r, "status": "pass" if witness is None else "fail"})
        if witness is not None:
            failed = True
            witnesses.append({"r": r, "witness": str(witness)})
    ok = ok_i and not failed
    return Report("minimal", instance_label(arr), "pass" if ok else "fail",
                  witnesses, {"ideal_equal": ok_i, "degrees": degrees})


def _minimal_ideal(arr: Arrangement, caps: Caps | None):
    """(ok, witnesses): the all-family P_L lie in the circuit ideal."""
    pres_c = commutative_generators(arr)
    pres_a = commutative_generators(arr, "all", caps)
    gb_i = groebner_ideal([g.element for g in pres_c.generators])
    for g in pres_a.generators:
        if not normal_form(g.element, gb_i).is_zero():
            return False, [{"ideal_witness": str(g.element)}]
    return True, []


def verify_lemma7(arr: Arrangement) -> Report:
    """The Q-element identities and their reduction to zero, per circuit.

    The P_{L,S} are those of the circuit presentation that theorem2 checks,
    grouped by circuit; each Q_{L,S} is built anew from dL and dz_S.  A
    nonzero Q_{L,S} of Grassmann degree r is divided by the nonzero
    u_B * P_{L,T} of its circuit with |B| + |T| = r, indexed once per
    circuit and degree.  A zero remainder
    writes it as a combination of them, so it lies in the circuit's ideal
    whether or not they form a Groebner basis.  Only a nonzero remainder
    builds the circuit's chain, and the witness is the normal form modulo
    its reduced basis G_r, which is zero exactly when Q_{L,S} lies in J_r.
    """
    label = instance_label(arr)
    ring = t_ring(arr)
    by_relation: dict = {}
    for g in super_generators(arr).generators:
        by_relation.setdefault(g.relation, {})[g.subset] = g
    witnesses = []
    checked = 0
    for rel, records in by_relation.items():
        divisors: dict = {}
        bases: list = []
        i1 = rel.support[0]
        u1 = ExtElement.generator(ring, i1)
        base = ext_mul(u1, ExtElement.from_poly(p_of_L(ring, rel))) - records[
            (i1,)
        ].element.poly_mul(ring.variable(f"t{i1}"))
        if base != q_of_LS(ring, rel, ()):
            witnesses.append({"relation": list(rel.support),
                              "identity": "u_min*P_L - t_min*P_L_min != Q_L_empty"})
        for S, g in records.items():
            q = q_of_LS(ring, rel, S)
            checked += 1
            for i in S:
                ui = ExtElement.generator(ring, i)
                if q != ext_mul(ui, g.element):
                    witnesses.append({"relation": list(rel.support),
                                      "S": list(S), "i": i,
                                      "identity": "Q != u_i * P_LS"})
            if q.is_zero():
                continue
            r = len(S) + 1
            if r not in divisors:
                divisors[r] = IndexedBasis(_u_multiples(records.values(),
                                                        arr.m, r))
            if module_normal_form(q, divisors[r]).is_zero():
                continue
            gens = [h.element for h in records.values()
                    if not h.element.is_zero()]
            nf = module_normal_form(q, _grassmann_chain(gens, arr.m, r,
                                                        bases)[r])
            if not nf.is_zero():
                witnesses.append({"relation": list(rel.support), "S": list(S),
                                  "reduction": str(nf)})
    status = "pass" if not witnesses else "fail"
    return Report("lemma7", label, status, witnesses, {"pairs": checked})


# -- the explicit Groebner family check -----------------------------------------


def _family_vectors(field, slots: int, caps: Caps):
    """All nonzero coefficient assignments over `slots` positions."""
    count = field.char ** slots - 1
    caps.check("family enumeration", count, caps.family)
    for combo in itertools.product(range(field.char), repeat=slots):
        if any(combo):
            yield combo


def verify_groebner_lemma(arr: Arrangement, r: int,
                          caps: Caps | None = None) -> Report:
    """Enumerate the three-part family and run the Buchberger criterion on it.

    Also confirms the family generates the same submodule as the straight
    generators (s * t_I e_I and (1-s) * P_L e_{I'}).
    """
    label = instance_label(arr)
    caps = caps or Caps()
    if arr.field.char == 0:
        raise FieldError("family enumeration needs a finite field")
    field = arr.field
    tr = t_ring(arr)
    ring = PolyRing(field, ("s",) + tr.variables)
    s_poly = ring.variable("s")
    one_minus_s = ring.one() - s_poly

    subsets = list(itertools.combinations(range(1, arr.m + 1), r))
    expansions = {I: _dz_expansion(arr, I) for I in subsets}
    rels = distinct_relations(arr, caps)
    p_polys = [tr.lift(p_of_L(tr, rel), ring) for rel in rels]
    labels = list(itertools.combinations(arr.basis_indices, r))

    def combined(vec):
        entries: dict = {}
        union = set()
        for c, I in zip(vec, subsets):
            if not c:
                continue
            union.update(I)
            for sub, x in expansions[I].items():
                val = field.mul(field.from_int(c), x)
                got = field.add(entries.get(sub, field.zero), val)
                if got == field.zero:
                    entries.pop(sub, None)
                else:
                    entries[sub] = got
        return union, entries

    def dedupe(elems):
        out = []
        seen = set()
        for e in elems:
            if e.is_zero():
                continue
            key = e.monic().sort_key()
            if key not in seen:
                seen.add(key)
                out.append(e)
        return out

    s1 = []
    s3 = []
    for vec in _family_vectors(field, len(subsets), caps):
        union, entries = combined(vec)
        if not entries:
            continue
        t_union = ring.term(1, {f"t{i}": 1 for i in sorted(union)})
        base = ExtElement(
            ring, {sub: t_union.scale(c) for sub, c in entries.items()}, DZ
        )
        s1.append(base.poly_mul(s_poly))
        for rel, p in zip(rels, p_polys):
            t_extra = ring.term(
                1, {f"t{i}": 1 for i in sorted(union - set(rel.support))}
            )
            s3.append(ExtElement(
                ring, {sub: p * t_extra.scale(c) for sub, c in entries.items()},
                DZ))
    s2 = [
        ExtElement(ring, {I_prime: p * one_minus_s}, DZ)
        for p in p_polys
        for I_prime in labels
    ]
    family = dedupe(s1) + dedupe(s2) + dedupe(s3)

    # Buchberger criterion against the family itself, no completion.
    pairs = 0
    witnesses = []
    for i, j, rem in module_spair_remainders(family):
        pairs += 1
        if not rem.is_zero():
            witnesses.append({"pair": [i, j], "remainder": str(rem)})
            if len(witnesses) >= 3:
                break

    # The family and the straight generators span the same submodule.
    plain = []
    for I in subsets:
        entries = {
            sub: ring.term(1, {f"t{i}": 1 for i in I}).scale(c)
            for sub, c in expansions[I].items()
        }
        if entries:
            plain.append(ExtElement(ring, entries, DZ).poly_mul(s_poly))
    plain += s2
    span_ok = True
    plain_gb = module_groebner(plain)
    for e in family:
        if not module_normal_form(e, plain_gb).is_zero():
            span_ok = False
            witnesses.append({"membership": str(e)})
            break

    status = "pass" if not witnesses and span_ok else "fail"
    return Report(
        "groebner-lemma", label, status, witnesses,
        {"r": r, "family_size": len(family), "pairs": pairs,
         "same_span": span_ok},
    )


# -- stratified point counting ---------------------------------------------------


def _unpacked(poly: Polynomial):
    """(coefficient, ((rank - 1, exponent), ...)) for each term of `poly`."""
    return [(c, tuple((r - 1, e) for r, e in mono_pairs(m)))
            for m, c in poly._d.items()]


def _evaluate_at(field, terms, point):
    """The value at `point` (indexed by rank - 1) of `_unpacked` terms."""
    zero = field.zero
    total = zero
    for c, factors in terms:
        for k, e in factors:
            v = point[k]
            if v == zero:
                break
            for _ in range(e):
                c = field.mul(c, v)
        else:
            total = field.add(total, c)
    return total


def _vanishing_count(field, m: int, gens) -> int:
    """Points of F_p^m at which every polynomial of `gens` vanishes.

    The points are enumerated coordinate by coordinate (coordinate k is the
    variable of rank k + 1), and each polynomial is tested as soon as its
    last variable has a value, so a partial point is dropped at the first
    polynomial that does not vanish on it.  Each polynomial is unpacked once.
    """
    due = [[] for _ in range(m)]
    for g in gens:
        terms = _unpacked(g)
        last = max((k + 1 for _, factors in terms for k, _ in factors),
                   default=0)
        if last:
            due[last - 1].append(terms)
        elif terms:
            return 0  # a nonzero constant vanishes nowhere
    point = [field.zero] * m
    zero = field.zero

    def extend(k: int) -> int:
        if k == m:
            return 1
        total = 0
        for v in field.elements():
            point[k] = v
            if all(_evaluate_at(field, terms, point) == zero
                   for terms in due[k]):
                total += extend(k + 1)
        return total

    return extend(0)


def count_points(arr: Arrangement, caps: Caps | None = None) -> Report:
    """Points of the vanishing locus versus the per-flat stratification sum."""
    caps = caps or Caps()
    if arr.field.char == 0:
        raise FieldError("point counting needs a finite field")
    field = arr.field
    p = field.char
    caps.check("point enumeration", p ** arr.m, caps.points)
    lhs = _vanishing_count(field, arr.m, _instance_kernel(arr))
    per_flat = []
    rhs = 0
    for f in flats(arr, caps):
        sub = restrict_to_flat(arr, f)
        caps.check("point enumeration", p ** sub.n, caps.points)
        cnt = 0
        for point in field_points(field, sub.n):
            good = True
            for row in sub.forms:
                v = field.zero
                for c, x in zip(row, point):
                    v = field.add(v, field.mul(c, x))
                if v == field.zero:
                    good = False
                    break
            if good:
                cnt += 1
        per_flat.append({"flat": list(f.indices), "count": cnt})
        rhs += cnt
    status = "pass" if lhs == rhs else "fail"
    return Report("stratification", instance_label(arr), status, [],
                  {"lhs": lhs, "rhs": rhs, "per_flat": per_flat})


# -- Hilbert functions two ways ---------------------------------------------------


def _t_monomials_of_degree(ring: PolyRing, d: int):
    """All monomials of total degree d in the ring's variables."""
    names = ring.variables
    for combo in itertools.combinations_with_replacement(names, d):
        exps: dict = {}
        for name in combo:
            exps[name] = exps.get(name, 0) + 1
        yield ring.mono(exps)


def _standard_count(lt_monos, ring, d) -> int:
    count = 0
    for m in _t_monomials_of_degree(ring, d):
        if not any(ring.mono_divides(lt, m) for lt in lt_monos):
            count += 1
    return count


def _exterior_labels(arr: Arrangement, super: bool, deg: int):
    """(r, B) for each exterior monomial u_B of a topological degree-`deg`
    monomial u_B t^a (|B| = r, |a| = (deg - r) / 2); only B = () unless
    `super`."""
    for r in range(min(arr.m, deg) + 1) if super else (0,):
        if (deg - r) % 2 == 0:
            for B in itertools.combinations(range(1, arr.m + 1), r):
                yield r, B


def hilbert(arr: Arrangement, super: bool = False, max_degree: int = 10):
    """Dimension tables by standard monomials and by the evaluation rank.

    Returns {"standard": {deg: dim}, "rank": {deg: dim}} over topological
    degrees 0..max_degree (t has degree 2, u degree 1).  A commutative
    table over Q takes each rank from the bounds of `_sandwich_forms` where
    they meet, and from `_rank_dimension` everywhere else.
    """
    ring = t_ring(arr)
    forms = None
    if super:
        leading: dict = {}
        for r in range(min(arr.m, max_degree) + 1):
            by_label = leading[r] = {}
            # kernel_K_degree already returns a reduced Groebner basis
            for g in kernel_K_degree(arr, r):
                m, _, lab = g.lt()
                by_label.setdefault(lab, []).append(m)
    else:
        kernel = _instance_kernel(arr)
        leading = {0: {(): [g.lm() for g in kernel]}}
        if arr.field.char == 0:
            forms = _sandwich_forms(arr, kernel)
    # fixed seed: the points move no table, only how often the bounds meet
    rng = random.Random(0)
    table_a = {}
    table_b = {}
    for deg in range(max_degree + 1):
        table_a[deg] = sum(
            _standard_count(leading[r].get(B, ()), ring, (deg - r) // 2)
            for r, B in _exterior_labels(arr, super, deg)
        )
        if (forms is not None and deg % 2 == 0
                and _evaluation_rank(forms, deg // 2, table_a[deg], rng)
                == table_a[deg]):
            table_b[deg] = table_a[deg]
        else:
            table_b[deg] = _rank_dimension(arr, super, deg)
    return {"standard": table_a, "rank": table_b}


# The Mersenne prime 2^61 - 1: the evaluation lower bound is a rank mod _P.
_P = (1 << 61) - 1


def _sandwich_forms(arr: Arrangement, kernel):
    """The forms mod _P when bounds may settle the commutative rank column
    over Q, else None.

    Upper bound: once every kernel generator maps to zero under `eval_h`,
    its leading monomials lie in the initial ideal of Ker(h), so the
    standard count of degree 2d is at least the rank of h on t-degree d.
    Lower bound (`_evaluation_rank`): a linear relation over Q among the
    images, scaled to coprime integers, stays a nonzero relation mod _P
    and holds at every point, so no rank of values exceeds the rank of
    the images; random points reach it but with a chance of order
    deg/_P (Schwartz 1980; Zippel 1979).  None when a coefficient's
    denominator or a whole form is divisible by _P, or when a generator
    does not map to zero.
    """
    forms = []
    for row in arr.forms:
        if any(c.denominator % _P == 0 for c in row):
            return None
        forms.append([c.numerator * pow(c.denominator, -1, _P) % _P
                      for c in row])
        if not any(forms[-1]):
            return None
    if not all(eval_h(arr, g).is_zero() for g in kernel):
        return None
    return forms


def _evaluation_rank(forms, d: int, npoints: int, rng) -> int:
    """Rank mod _P of the values prod z_i(x)^(-a_i) of the t-monomials t^a
    of degree d at `npoints` points x of F_P^n drawn from `rng`, each
    redrawn until no form vanishes at it."""
    n = len(forms[0]) if forms else 0
    rows = []
    while len(rows) < npoints:
        x = [rng.randrange(_P) for _ in range(n)]
        zs = [sum(c * v for c, v in zip(row, x)) % _P for row in forms]
        if not all(zs):
            continue
        w = [pow(z, -1, _P) for z in zs]
        # (least index the next factor may take, value): the monomials in
        # the order of combinations_with_replacement
        level = [(0, 1)]
        for _ in range(d):
            level = [(i, v * w[i] % _P)
                     for lo, v in level for i in range(lo, len(w))]
        rows.append([v for _, v in level])
    return linalg.rank(PrimeField(_P), rows)


def _rank_images(arr: Arrangement, super: bool, deg: int):
    """Images of all monomials of topological degree `deg`, u_B t^a under
    psi (t^a under h when not `super`), over one shared denominator."""
    ring = t_ring(arr)
    labels = list(_exterior_labels(arr, super, deg))
    # t_i^a u_B with i in B needs z_i^(a+1): the largest exponent any image
    # of this degree needs, given to every form of every image, so the
    # images share one denominator and their numerators one column space
    den = max(((deg - r) // 2 + (r > 0) for r, _ in labels), default=0)
    shared = _SharedSubstitution(arr, unkept=2)
    for r, B in labels:
        for m in _t_monomials_of_degree(ring, (deg - r) // 2):
            yield _substitute(shared, (), ring, ((B, m, arr.field.one),), den)


def _rank_dimension(arr: Arrangement, super: bool, deg: int) -> int:
    """Rank of the `_rank_images` numerators as coefficient vectors."""
    cols: dict = {}
    vecs = []
    for img in _rank_images(arr, super, deg):
        vec = {}
        for term, c in img.numerator._t.items():
            vec[cols.setdefault(term, len(cols))] = c
        vecs.append(vec)
    return _sparse_rank(arr.field, vecs, len(cols))


def _sparse_rank(field, vecs, ncols) -> int:
    if not vecs or ncols == 0:
        return 0
    if field.char == 2:
        rows = []
        for vec in vecs:
            bits = 0
            for j in vec:
                bits |= 1 << j
            rows.append(bits)
        return linalg.matrix_rank_f2_bitmask(rows)
    dense = []
    for vec in vecs:
        row = [field.zero] * ncols
        for j, c in vec.items():
            row[j] = c
        dense.append(row)
    return linalg.rank(field, dense)


# -- chart verification -----------------------------------------------------------


def chart_kernel(arr: Arrangement, flat: Flat):
    """Kernel of the chart coordinate map, by elimination over F[x, t, z].

    The chart sends t_i to 1/z_i(x) for i outside the flat and z_j to the
    form z_j(x) on it; the kernel is computed in the chart polynomial ring.
    """
    t_idx = tuple(i for i in range(1, arr.m + 1) if i not in flat.indices)
    chart = _chart_poly_ring(arr.field, t_idx, tuple(flat.indices))
    return _elimination_kernel(arr, flat.indices, chart)


def verify_charts(arr: Arrangement, caps: Caps | None = None) -> Report:
    """Chart generators against the elimination kernel, flat by flat.

    Commutative charts get the full two-sided ideal comparison; super charts
    are checked by exact substitution (every generator must map to zero).
    """
    label = instance_label(arr)
    witnesses = []
    count = 0
    shared = _SharedSubstitution(arr)
    for f in flats(arr, caps):
        count += 1
        chart = chart_ring(arr, f)
        gens = [g.element for g in chart.generators]
        ker = chart_kernel(arr, f)
        if not ideal_equal(gens, ker):
            witnesses.append({"flat": list(f.indices),
                              "kernel": [str(k) for k in ker],
                              "chart": [str(g) for g in gens]})
        for g in chart_ring(arr, f, super=True).generators:
            if g.element.is_zero():
                continue
            if not eval_chart(arr, f, g.element, shared).is_zero():
                witnesses.append({"flat": list(f.indices),
                                  "super_generator": str(g.element)})
    status = "pass" if not witnesses else "fail"
    return Report("charts", label, status, witnesses, {"flats": count})

"""Hyperplane arrangements: ingestion, rank, circuits, relations and flats.

An arrangement is a list of nonzero linear forms z_1..z_m on F^n.  Indices in
every public structure are 1-based.  Linear dependencies among the forms are
Relation objects; inclusion-minimal ones are the circuits of the represented
matroid.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .caps import Caps
from .fields import FieldError, field_from_json, field_to_json, json_int


class ParallelFormsWarning(UserWarning):
    """Two forms of the arrangement are proportional."""


class SpecError(ValueError):
    """Malformed arrangement specification."""


def _greedy_basis(field, rows) -> list:
    """1-based positions of the rows that are not in the span of the rows
    before them.

    Each row is reduced once against the rows kept so far, which grow by
    its remainder when it is kept.
    """
    kept = []
    pivots = []
    for i, row in enumerate(rows, start=1):
        if linalg.extend_echelon(field, pivots, row):
            kept.append(i)
    return kept


class Arrangement:
    """Nonzero linear forms over a field, with rank and a chosen basis."""

    __slots__ = ("field", "n", "forms", "names", "rank", "basis_indices",
                 "_coords", "_hash", "__weakref__")

    def __init__(self, field, n: int, forms, names=None):
        self.field = field
        self.n = int(n)
        normalized = []
        for i, vec in enumerate(forms, start=1):
            row = tuple(_entry(field, x) for x in vec)
            if len(row) != self.n:
                raise SpecError(f"form {i} has length {len(row)}, expected {self.n}")
            if all(x == field.zero for x in row):
                raise SpecError(f"form {i} is zero")
            normalized.append(row)
        self.forms = tuple(normalized)
        if names is None:
            names = tuple(f"z{i}" for i in range(1, len(self.forms) + 1))
        self.names = tuple(names)
        if len(self.names) != len(self.forms):
            raise SpecError("names do not match the number of forms")
        basis = _greedy_basis(field, self.forms)
        self.rank = len(basis)
        self.basis_indices = tuple(basis)
        self._coords = None
        self._hash = None

    @property
    def m(self) -> int:
        return len(self.forms)

    def form(self, i: int):
        """Coefficient vector of z_i (1-based)."""
        return self.forms[i - 1]

    def warn_parallel(self):
        seen = {}
        for i, row in enumerate(self.forms, start=1):
            pivot = next(k for k, x in enumerate(row) if x != self.field.zero)
            scale = self.field.inv(row[pivot])
            key = tuple(self.field.mul(scale, x) for x in row)
            if key in seen:
                warnings.warn(
                    f"forms {seen[key]} and {i} are proportional",
                    ParallelFormsWarning,
                    stacklevel=3,
                )
            else:
                seen[key] = i
        return self

    def basis_coordinates(self):
        """Row i-1: coordinates of z_i in the basis forms (length = rank)."""
        if self._coords is None:
            basis_rows = [list(self.form(i)) for i in self.basis_indices]
            coords = []
            for i in range(1, self.m + 1):
                sol = linalg.solve_combination(
                    self.field, basis_rows, list(self.form(i))
                )
                coords.append(tuple(sol))
            self._coords = tuple(coords)
        return self._coords

    def to_json(self) -> dict:
        return {
            "field": field_to_json(self.field),
            "n": self.n,
            "hyperplanes": [[_scalar_to_json(x) for x in row] for row in self.forms],
            "names": list(self.names),
        }

    @staticmethod
    def from_json(data: dict) -> "Arrangement":
        try:
            field = field_from_json(data["field"])
            n = json_int(data["n"], "n")
            rows = data["hyperplanes"]
        except (KeyError, TypeError, FieldError) as exc:
            raise SpecError(f"bad arrangement spec: {exc}") from exc
        if not isinstance(rows, list) or not rows:
            raise SpecError("hyperplanes must be a nonempty list of vectors")
        forms = []
        for row in rows:
            if not isinstance(row, list):
                raise SpecError("each hyperplane must be a list of integers")
            forms.append([_scalar_from_json(field, x) for x in row])
        arr = Arrangement(field, n, forms, names=data.get("names"))
        arr.warn_parallel()
        return arr

    def __eq__(self, other):
        return (
            isinstance(other, Arrangement)
            and other.field == self.field
            and other.n == self.n
            and other.forms == self.forms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.n, self.forms))
        return self._hash

    def __repr__(self):
        return f"Arrangement({self.field!r}, n={self.n}, m={self.m})"


def _entry(field, x):
    """A form entry as a scalar of `field`: an int, or an integral
    Fraction, is read by `from_int`, so over Q it is an int."""
    if isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1):
        return field.from_int(x.numerator)
    return x


def _scalar_to_json(x):
    return str(x) if isinstance(x, Fraction) else int(x)


def _scalar_from_json(field, x):
    # bool is a subclass of int; JSON true/false is not a coefficient
    if isinstance(x, int) and not isinstance(x, bool):
        return field.from_int(x)
    if isinstance(x, str):
        return field.parse(x)
    raise SpecError(f"bad coefficient {x!r}")


@dataclass(frozen=True)
class Relation:
    """A linear dependency sum(a_j * z_{i_j}) = 0 with normalized leading 1."""

    support: tuple
    coeffs: tuple

    @staticmethod
    def from_vector(arr: Arrangement, vec) -> "Relation":
        field = arr.field
        support = tuple(i for i in range(1, arr.m + 1) if vec[i - 1] != field.zero)
        if len(support) < 2:
            raise ValueError("a relation needs at least two nonzero coefficients")
        lead = field.inv(vec[support[0] - 1])
        coeffs = tuple(field.mul(lead, vec[i - 1]) for i in support)
        rel = Relation(support, coeffs)
        rel.validate(arr)
        return rel

    def validate(self, arr: Arrangement):
        field = arr.field
        total = [field.zero] * arr.n
        for i, a in zip(self.support, self.coeffs):
            row = arr.form(i)
            total = [field.add(t, field.mul(a, x)) for t, x in zip(total, row)]
        if any(x != field.zero for x in total):
            raise ValueError("coefficients do not annihilate the forms")
        return self

    def size(self) -> int:
        return len(self.support)

    def to_json(self, field) -> dict:
        return {
            "support": list(self.support),
            "coeffs": [field.fmt(c) for c in self.coeffs],
        }


@dataclass(frozen=True)
class Flat:
    """A closed index set S_V together with dim of the quotient space."""

    indices: tuple
    quotient_dim: int

    def to_json(self) -> dict:
        return {"indices": list(self.indices), "quotient_dim": self.quotient_dim}


def circuits(arr: Arrangement):
    """All circuits as normalized Relations, by increasing support size."""
    found = []
    supports = []
    for size in range(2, arr.m + 1):
        for combo in itertools.combinations(range(1, arr.m + 1), size):
            cs = set(combo)
            if any(s <= cs for s in supports):
                continue
            rows = [list(arr.form(i)) for i in combo]
            kern = linalg.kernel_basis(arr.field, _transpose(rows, arr.n), size)
            if not kern:  # independent
                continue
            if len(kern) != 1:
                raise RuntimeError("circuit must have a one-dimensional kernel")
            vec = [arr.field.zero] * arr.m
            for pos, i in enumerate(combo):
                vec[i - 1] = kern[0][pos]
            found.append(Relation.from_vector(arr, vec))
            supports.append(cs)
    return found


def _transpose(rows, ncols):
    return [[row[c] for row in rows] for c in range(ncols)]


def relation_kernel_basis(arr: Arrangement):
    """Basis vectors of the full relation space {a : sum a_i z_i = 0}."""
    matrix = [[arr.form(i)[c] for i in range(1, arr.m + 1)] for c in range(arr.n)]
    return linalg.kernel_basis(arr.field, matrix, arr.m)


def relation_space(arr: Arrangement, caps: Caps | None = None):
    """All p^(m - rank) - 1 nonzero relation vectors, each normalized.

    Needs a finite field; scalar multiples of the same dependency appear as
    repeated Relations for p > 2 (callers de-duplicate where it matters).
    """
    field = arr.field
    if field.char == 0:
        raise FieldError("full relation enumeration needs a finite field")
    caps = caps or Caps()
    d = arr.m - arr.rank
    count = field.char ** d - 1
    caps.check("relation enumeration", count, caps.relations)
    basis = relation_kernel_basis(arr)
    out = []
    for combo in itertools.product(range(field.char), repeat=d):
        if not any(combo):
            continue
        vec = [field.zero] * arr.m
        for c, bvec in zip(combo, basis):
            if c:
                vec = [field.add(v, field.mul(c, b)) for v, b in zip(vec, bvec)]
        out.append(Relation.from_vector(arr, vec))
    return out


def distinct_relations(arr: Arrangement, caps: Caps | None = None):
    """relation_space with scalar-duplicate Relations collapsed."""
    seen = set()
    out = []
    for rel in relation_space(arr, caps):
        key = (rel.support, rel.coeffs)
        if key not in seen:
            seen.add(key)
            out.append(rel)
    return out


def relations_for(arr: Arrangement, mode: str, caps: Caps | None = None):
    """Relation family for presentations: 'circuits' or 'all'."""
    if mode == "circuits":
        return circuits(arr)
    if mode == "all":
        return distinct_relations(arr, caps)
    raise ValueError(f"unknown relation mode {mode!r}")


def closure(arr: Arrangement, indices) -> Flat:
    """The flat of all forms lying in the span of the given ones.

    The given forms are brought to echelon form once; each form is then
    reduced against it.
    """
    field = arr.field
    pivots = linalg.echelon(field, [arr.form(i) for i in sorted(set(indices))])
    members = tuple(j for j in range(1, arr.m + 1)
                    if linalg.in_row_space(field, pivots, arr.form(j)))
    return Flat(members, len(pivots))


def flats(arr: Arrangement, caps: Caps | None = None):
    """All flats, ordered by size then lexicographically."""
    caps = caps or Caps()
    caps.check("flat enumeration", 2 ** arr.m, caps.flats)
    seen = {}
    for size in range(arr.m + 1):
        for combo in itertools.combinations(range(1, arr.m + 1), size):
            f = closure(arr, combo)
            seen.setdefault(f.indices, f)
    return sorted(seen.values(), key=lambda f: (len(f.indices), f.indices))


def restrict_to_flat(arr: Arrangement, flat: Flat) -> Arrangement:
    """The arrangement of the flat's forms on the quotient by its subspace.

    Coordinates come from a greedy basis among the flat's own forms, so the
    result is deterministic; original index labels ride along as names.
    """
    field = arr.field
    members = list(flat.indices)
    rows = [list(arr.form(i)) for i in members]
    basis_rows = [rows[k - 1] for k in _greedy_basis(field, rows)]
    if len(basis_rows) != flat.quotient_dim:
        raise ValueError("flat is not closed")
    if not members:
        return Arrangement(field, 0, [], names=())
    forms = []
    for i in members:
        forms.append(linalg.solve_combination(field, basis_rows, list(arr.form(i))))
    return Arrangement(
        field,
        len(basis_rows),
        forms,
        names=tuple(arr.names[i - 1] for i in members),
    )


def field_points(field, dim: int):
    """All points of F^dim for a prime field, generated one at a time."""
    return itertools.product(range(field.char), repeat=dim)

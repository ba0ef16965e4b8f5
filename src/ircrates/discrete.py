"""Exact rate-bound evaluation on finite-alphabet joint distributions.

Everything here is dense-tensor arithmetic: a joint pmf is a numpy array
with one axis per named variable, and every information measure is an
exact sum over the product alphabet (0 log 0 = 0).  This module is the
oracle side of the rate formulas, so no sampling or sparsity shortcuts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, make_dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "JointPmf",
    "BiLevelFactorization",
    "SingleLevelFactorization",
    "entropy",
    "conditional_mutual_information",
    "bi_level_bounds",
    "single_level_bounds",
    "load_factorization",
]

_MAX_TABLE_ENTRIES = 10**6
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class JointPmf:
    """A joint distribution over named finite-alphabet variables."""

    names: Tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", table)
        if table.ndim != len(self.names):
            raise ValueError(
                f"{len(self.names)} variable names for a rank-{table.ndim} table"
            )
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        _check_table_size(table.size)
        _check_conditional("joint pmf", table, 0)

    def axes(self, names: Sequence[str]) -> Tuple[int, ...]:
        missing = [n for n in names if n not in self.names]
        if missing:
            raise ValueError(f"unknown variables {missing}; have {self.names}")
        return tuple(self.names.index(n) for n in names)

    def marginal(self, keep: Sequence[str]) -> "JointPmf":
        """Marginalize onto ``keep`` (result axes follow the original order)."""
        keep_axes = set(self.axes(keep))
        drop = tuple(i for i in range(self.table.ndim) if i not in keep_axes)
        kept_names = tuple(n for i, n in enumerate(self.names) if i in keep_axes)
        return JointPmf(kept_names, self.table.sum(axis=drop))


def _check_table_size(entries: int) -> None:
    if entries > _MAX_TABLE_ENTRIES:
        raise ValueError(f"table has {entries} entries, cap is {_MAX_TABLE_ENTRIES}")


def _product_table(subscripts: str, *factors: np.ndarray) -> np.ndarray:
    """``np.einsum`` of the factors, its size checked against the cap first."""
    inputs, output = subscripts.split("->")
    sizes = {}
    for term, factor in zip(inputs.split(","), factors):
        sizes.update(zip(term, factor.shape))
    _check_table_size(math.prod(sizes[axis] for axis in output))
    return np.einsum(subscripts, *factors, optimize=True)


def _xlogx(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def entropy(pmf: JointPmf, names: Sequence[str]) -> float:
    """Joint Shannon entropy H(names) in bits."""
    return float(-_xlogx(pmf.marginal(names).table).sum())


def conditional_mutual_information(
    pmf: JointPmf,
    group_a: Sequence[str],
    group_b: Sequence[str],
    group_c: Sequence[str] = (),
) -> float:
    """I(A; B | C) in bits by exact summation; C empty gives plain MI.

    Computed as sum p(a,b,c) log2[ p(a,b,c) p(c) / (p(a,c) p(b,c)) ], which
    stays independent of the entropy-decomposition identity used as the
    test oracle.
    """
    a, b, c = tuple(group_a), tuple(group_b), tuple(group_c)
    for x, y in ((a, b), (a, c), (b, c)):
        overlap = set(x) & set(y)
        if overlap:
            raise ValueError(f"variable groups overlap: {sorted(overlap)}")

    sub = pmf.marginal(a + b + c)
    return _cmi(sub.table, sub.axes(a), sub.axes(b))


def _cmi(p_abc: np.ndarray, ax_a: Tuple[int, ...], ax_b: Tuple[int, ...]) -> float:
    """I(A; B | C) in bits of the pmf ``p_abc``, whose axes ``ax_a`` are A,
    ``ax_b`` are B and the others C; the log ratio is taken only where
    p(a,b,c) > 0, of products broadcast over the whole table."""
    p_ac = p_abc.sum(axis=ax_b, keepdims=True)
    p_bc = p_abc.sum(axis=ax_a, keepdims=True)
    p_c = p_ac.sum(axis=ax_a, keepdims=True)

    mask = p_abc > 0
    num = (p_abc * p_c)[mask]
    den = (p_ac * p_bc)[mask]
    total = float(np.sum(p_abc[mask] * np.log2(num / den)))
    return max(total, 0.0)  # clip tiny negative round-off


def _check_conditional(name: str, table: np.ndarray, cond_rank: int):
    """Validate that trailing axes of ``table`` sum to 1 for every prefix.

    A NaN or +inf entry fails the sum test, -inf the sign test.
    """
    if (table < 0).any():
        raise ValueError(f"{name}: probabilities must be nonnegative")
    sums = table.sum(axis=tuple(range(cond_rank, table.ndim)))
    if not (np.abs(sums - 1.0) <= 1e-9).all():
        raise ValueError(f"{name}: probabilities must sum to 1")


# Each mode's factors in file order, as (field, outputs, conditions).  A
# factor's table has its conditioning axes first, then its output axes.  The
# loader accepts exactly these, each is checked as a pmf of its outputs given
# its conditions, ``joint`` multiplies them and the bounds contract them.
_BI_LEVEL_FACTORS = (
    ("p_x1", ("x1",), ()),
    ("p_x2", ("x2",), ()),
    ("p_u1", ("u1",), ()),
    ("p_u2", ("u2",), ()),
    ("p_xr_given_u", ("xr",), ("u1", "u2")),
    ("p_y_given_x", ("y1", "y2", "yr"), ("x1", "x2", "xr")),
    ("p_yh1_given", ("yh1",), ("yr", "u1")),
    ("p_yh2_given", ("yh2",), ("yr", "u2")),
)
_SINGLE_LEVEL_FACTORS = (
    ("p_x1", ("x1",), ()),
    ("p_x2", ("x2",), ()),
    ("p_xr", ("xr",), ()),
    ("p_y_given_x", ("y1", "y2", "yr"), ("x1", "x2", "xr")),
    ("p_yh_given", ("yh",), ("yr", "xr")),
)


class _Factorization:
    """The checks and the joint product of a table of factors, ``FACTORS``."""

    FACTORS: tuple = ()  # rows of (field, outputs, conditions)

    def __post_init__(self):
        for field, _, conds in self.FACTORS:
            arr = np.asarray(getattr(self, field), dtype=float)
            object.__setattr__(self, field, arr)
            _check_conditional(field, arr, len(conds))

    def joint(self) -> JointPmf:
        """The product of the factors, over the variables in order of first
        appearance."""
        axes = [conds + outs for _, outs, conds in self.FACTORS]
        names = tuple(dict.fromkeys(v for term in axes for v in term))
        letter = {name: chr(ord("a") + i) for i, name in enumerate(names)}
        inputs = ",".join("".join(letter[v] for v in term) for term in axes)
        table = _product_table(
            f"{inputs}->{''.join(letter.values())}",
            *(getattr(self, field) for field, _, _ in self.FACTORS),
        )
        return JointPmf(names, table)

    def _marginal(self, keep: Tuple[str, ...]) -> np.ndarray:
        """p(keep), axes in ``keep`` order, by variable elimination over the
        factors, never the joint: the joint's size is checked against the cap,
        then the einsum calls of ``_elimination_plan`` run."""
        tables = [getattr(self, field) for field, _, _ in self.FACTORS]
        _check_table_size(math.prod(n for (_, _, conds), table in zip(self.FACTORS, tables)
                                    for n in table.shape[len(conds):]))
        for ops, out in _elimination_plan(type(self), keep):
            tables.append(np.einsum(*(x for slot, sub in ops for x in (tables[slot], sub)), out))
        return tables[-1]


@functools.cache
def _elimination_plan(cls, keep: Tuple[str, ...]) -> tuple:
    """The einsum calls of ``cls._marginal(keep)``, each (((slot, sublist), ...),
    output sublist); slots number the factors, then the calls' results.  Unkept
    variables go in order of first appearance; no ``optimize=``, which costs more."""
    factors = [(conds + outs, slot) for slot, (_, outs, conds) in enumerate(cls.FACTORS)]
    ids = {v: i for i, v in enumerate(dict.fromkeys(v for axes, _ in factors for v in axes))}
    plan = []
    for var in (v for v in ids if v not in keep):
        hit = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        out = tuple(dict.fromkeys(v for axes, _ in hit for v in axes if v != var))
        plan.append((hit, out))
        factors.append((out, len(cls.FACTORS) + len(plan) - 1))
    plan.append((factors, keep))
    return tuple((tuple((slot, tuple(ids[v] for v in axes)) for axes, slot in terms),
                  tuple(ids[v] for v in out)) for terms, out in plan)


def _factorization(name: str, factors, doc: str) -> type:
    """A frozen dataclass with one array field per row of ``factors``."""
    return make_dataclass(
        name, [(field, np.ndarray) for field, _, _ in factors],
        bases=(_Factorization,), frozen=True,
        namespace={"FACTORS": factors, "__doc__": doc, "__module__": __name__},
    )


BiLevelFactorization = _factorization(
    "BiLevelFactorization", _BI_LEVEL_FACTORS,
    "Product-form input distribution for the bi-level compression bounds;\n"
    "one field per row of ``_BI_LEVEL_FACTORS``.",
)
SingleLevelFactorization = _factorization(
    "SingleLevelFactorization", _SINGLE_LEVEL_FACTORS,
    "Product-form input distribution for the single-level compression bounds;\n"
    "one field per row of ``_SINGLE_LEVEL_FACTORS``.",
)


def _user_terms(fact: _Factorization, x: str, c: str, y: str, yh: str):
    """One user's rate cap I(x; y, yh | c), description rate I(yr; yh | c, y)
    and decoded rate I(c; y), all read from the marginal p(x, c, y, yr, yh)."""
    p = fact._marginal((x, c, y, "yr", yh))
    p_cy = p.sum(axis=0)  # c, y, yr, yh
    return (_cmi(p.sum(axis=3), (0,), (2, 3)), _cmi(p_cy, (2,), (3,)),
            _cmi(p_cy.sum(axis=(2, 3)), (0,), (1,)))


def bi_level_bounds(fact: BiLevelFactorization) -> Tuple[float, float, bool]:
    """Per-user rate caps and feasibility of the bi-level compression scheme.

    Returns (R1_cap, R2_cap, feasible) where feasibility requires each
    destination's compression-description rate not to exceed what it can
    decode from the relay's superposition layer.
    """
    r1, description1, decoded1 = _user_terms(fact, "x1", "u1", "y1", "yh1")
    r2, description2, decoded2 = _user_terms(fact, "x2", "u2", "y2", "yh2")
    return r1, r2, description1 <= decoded1 + _SUM_TOL and description2 <= decoded2 + _SUM_TOL


def single_level_bounds(fact: SingleLevelFactorization) -> Tuple[float, float, bool]:
    """Per-user rate caps and feasibility of the single-level compression scheme."""
    r1, description1, decoded1 = _user_terms(fact, "x1", "xr", "y1", "yh")
    r2, description2, decoded2 = _user_terms(fact, "x2", "xr", "y2", "yh")
    return r1, r2, max(description1, description2) <= min(decoded1, decoded2) + _SUM_TOL


# -- factorization text files -------------------------------------------------
#
# Line-oriented format; '#' starts a comment.  The first directive is
# `mode single` or `mode bi`.  Each factor is declared as
#
#     factor OUT1,OUT2,... | COND1,COND2,... : SIZE1 SIZE2 ...
#
# (`| ...` omitted for unconditional factors; SIZEk are the alphabet sizes
# of the output variables, conditioning sizes being already known).  The
# probabilities follow as whitespace-separated numbers, row-major over the
# conditioning variables then the output variables.  The factors a mode
# accepts, each exactly once, are the rows of `_BI_LEVEL_FACTORS` and
# `_SINGLE_LEVEL_FACTORS`.

_MODES = {"single": SingleLevelFactorization, "bi": BiLevelFactorization}


def _tokenize(path) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if "#" in text:  # reading in text mode made every line end '\n'
        text = "\n".join(line.split("#", 1)[0] for line in text.split("\n"))
    return text.split()


def load_factorization(path):
    """Parse a factorization file into the matching factorization object."""
    tokens = _tokenize(path)
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"{path}: unexpected end of file")
        tok = tokens[pos]
        pos += 1
        return tok

    if take() != "mode":
        raise ValueError(f"{path}: file must start with a 'mode' directive")
    mode = take()
    if mode not in _MODES:
        raise ValueError(f"{path}: mode must be 'single' or 'bi', got {mode!r}")
    cls = _MODES[mode]
    expected = {outs: conds for _, outs, conds in cls.FACTORS}

    sizes: Dict[str, int] = {}
    factors: Dict[Tuple[str, ...], np.ndarray] = {}
    while pos < len(tokens):
        if take() != "factor":
            raise ValueError(f"{path}: expected 'factor' directive")
        spec = []
        while (tok := take()) != ":":
            spec.append(tok)
        spec_str = " ".join(spec)
        if "|" in spec:
            bar = spec.index("|")
            outs = tuple(v for tok in spec[:bar] for v in tok.split(",") if v)
            conds = tuple(v for tok in spec[bar + 1 :] for v in tok.split(",") if v)
        else:
            outs = tuple(v for tok in spec for v in tok.split(",") if v)
            conds = ()
        if outs not in expected or expected[outs] != conds:
            raise ValueError(f"{path}: unexpected factor '{spec_str}' for mode {mode}")
        if outs in factors:
            raise ValueError(f"{path}: factor '{spec_str}' declared twice")
        try:
            out_sizes = [int(take()) for _ in outs]
            for name, size in zip(outs, out_sizes):
                if size < 1:
                    raise ValueError(f"alphabet size of {name} must be >= 1, got {size}")
                if sizes.setdefault(name, size) != size:
                    raise ValueError(f"conflicting alphabet size for {name}")
            undeclared = [c for c in conds if c not in sizes]
            if undeclared:
                raise ValueError(f"conditions on undeclared {undeclared}")
            _check_table_size(math.prod(sizes.values()))  # as _marginal will
            shape = tuple(sizes[c] for c in conds) + tuple(out_sizes)
            count = math.prod(shape)
            if len(tokens) - pos < count:
                raise ValueError("unexpected end of file")
            values = np.fromiter(map(float, tokens[pos : pos + count]), float, count)
        except ValueError as exc:
            # take() already names the file at an unexpected end of file.
            msg = str(exc).removeprefix(f"{path}: ")
            raise ValueError(f"{path}: factor '{spec_str}': {msg}") from None
        factors[outs] = values.reshape(shape)
        pos += count

    missing = [k for k in expected if k not in factors]
    if missing:
        raise ValueError(f"{path}: missing factors {missing} for mode {mode}")
    return cls(**{field: factors[outs] for field, outs, _ in cls.FACTORS})

import dataclasses
import functools
import textwrap

import numpy as np
import pytest

from ircrates import discrete
from ircrates.discrete import (
    BiLevelFactorization,
    JointPmf,
    SingleLevelFactorization,
    bi_level_bounds,
    conditional_mutual_information,
    entropy,
    load_factorization,
    single_level_bounds,
)
from reference_kernels import (
    bi_level_bounds_joint,
    bi_level_joint,
    cmi_reference,
    marginal_reference,
    single_level_bounds_joint,
    single_level_joint,
)


def random_pmf(rng, shape, names):
    t = rng.random(shape)
    return JointPmf(tuple(names), t / t.sum())


def random_conditional(rng, shape, cond_rank):
    t = rng.random(shape)
    out_axes = tuple(range(cond_rank, t.ndim))
    return t / t.sum(axis=out_axes, keepdims=True)


def random_bi_fact(rng, nx=2, nu=2, nxr=2, ny=2, nyh=2):
    return BiLevelFactorization(
        p_x1=random_conditional(rng, (nx,), 0),
        p_x2=random_conditional(rng, (nx,), 0),
        p_u1=random_conditional(rng, (nu,), 0),
        p_u2=random_conditional(rng, (nu,), 0),
        p_xr_given_u=random_conditional(rng, (nu, nu, nxr), 2),
        p_y_given_x=random_conditional(rng, (nx, nx, nxr, ny, ny, ny), 3),
        p_yh1_given=random_conditional(rng, (ny, nu, nyh), 2),
        p_yh2_given=random_conditional(rng, (ny, nu, nyh), 2),
    )


def random_single_fact(rng, nx=2, nxr=2, ny=2, nyh=2):
    return SingleLevelFactorization(
        p_x1=random_conditional(rng, (nx,), 0),
        p_x2=random_conditional(rng, (nx,), 0),
        p_xr=random_conditional(rng, (nxr,), 0),
        p_y_given_x=random_conditional(rng, (nx, nx, nxr, ny, ny, ny), 3),
        p_yh_given=random_conditional(rng, (ny, nxr, nyh), 2),
    )


def assert_refused_before_einsum(monkeypatch, fact):
    """``joint()`` and the bounds both refuse ``fact`` before any einsum."""

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum ran")

    monkeypatch.setattr(np, "einsum", no_einsum)
    for build in (fact.joint, functools.partial(bounds_of(fact), fact)):
        with pytest.raises(ValueError, match="cap is 1000000"):
            build()


class TestJointPmf:
    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            JointPmf(("a",), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            JointPmf(("a",), np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            JointPmf(("a", "b"), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            JointPmf(("a", "a"), np.full((2, 2), 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probability(self, bad):
        with pytest.raises(ValueError, match="sum to 1"):
            JointPmf(("a",), np.array([bad, 0.5]))

    @pytest.mark.parametrize("field", ["p_x1", "p_y_given_x"])
    def test_rejects_nan_in_factor(self, rng, field):
        fact = random_single_fact(rng)
        table = getattr(fact, field).copy()
        table.flat[0] = np.nan
        with pytest.raises(ValueError, match=f"{field}: probabilities must sum to 1"):
            dataclasses.replace(fact, **{field: table})

    def test_rejects_oversized_table(self):
        with pytest.raises(ValueError):
            JointPmf(tuple("abcdefg"), np.full((10,) * 7, 1e-7))

    @pytest.mark.parametrize("fact", [
        lambda rng: random_bi_fact(rng, nu=100, nyh=100),  # 1.6e9 entries
        lambda rng: random_single_fact(rng, nx=4, nxr=50, ny=4, nyh=50),  # 2.56e6
    ])
    def test_oversized_product_refused_before_building(self, rng, monkeypatch, fact):
        assert_refused_before_einsum(monkeypatch, fact(rng))

    # Bi-level alphabet sizes whose joint table has exactly 10**6 entries.
    AT_CAP = dict(x1=5, x2=5, u1=2, u2=2, xr=5, y1=2, y2=2, yr=5, yh1=10, yh2=10)

    def test_joint_at_the_cap_accepted(self, rng):
        fact = sized_fact(rng, "bi", self.AT_CAP)
        assert fact.joint().table.size == 10**6
        r1, r2, _ = bi_level_bounds(fact)
        assert np.isfinite(r1) and np.isfinite(r2)

    @pytest.mark.parametrize("var", sorted(AT_CAP))
    def test_one_letter_over_the_cap_refused(self, rng, monkeypatch, var):
        fact = sized_fact(rng, "bi", {**self.AT_CAP, var: self.AT_CAP[var] + 1})
        assert_refused_before_einsum(monkeypatch, fact)

    def test_marginal_preserves_order(self, rng):
        pmf = random_pmf(rng, (2, 3, 4), ("a", "b", "c"))
        m = pmf.marginal(("c", "a"))
        assert m.names == ("a", "c")
        np.testing.assert_allclose(m.table, pmf.table.sum(axis=1))


def sized_factor(rng, sizes, outs, conds=()):
    """A random table of p(outs | conds) with alphabet sizes ``sizes``."""
    shape = tuple(sizes[v] for v in conds + outs)
    return random_conditional(rng, shape, len(conds))


def sized_fact(rng, mode, sizes):
    """A random ``mode`` ("bi" or "single") factorization with alphabet sizes
    ``sizes``."""
    f = functools.partial(sized_factor, rng, sizes)
    y = f(("y1", "y2", "yr"), ("x1", "x2", "xr"))
    if mode == "bi":
        return BiLevelFactorization(
            p_x1=f(("x1",)), p_x2=f(("x2",)),
            p_u1=f(("u1",)), p_u2=f(("u2",)),
            p_xr_given_u=f(("xr",), ("u1", "u2")),
            p_y_given_x=y,
            p_yh1_given=f(("yh1",), ("yr", "u1")),
            p_yh2_given=f(("yh2",), ("yr", "u2")),
        )
    return SingleLevelFactorization(
        p_x1=f(("x1",)), p_x2=f(("x2",)), p_xr=f(("xr",)),
        p_y_given_x=y, p_yh_given=f(("yh",), ("yr", "xr")),
    )


def random_sizes(rng, max_x):
    sizes = {v: int(rng.integers(1, 4)) for v in
             ("u1", "u2", "xr", "y1", "y2", "yr", "yh1", "yh2", "yh")}
    sizes.update(x1=int(rng.integers(1, max_x + 1)), x2=int(rng.integers(1, max_x + 1)))
    return sizes


def bounds_of(fact):
    bi = isinstance(fact, BiLevelFactorization)
    return bi_level_bounds if bi else single_level_bounds


class TestJointMatchesReference:
    """``joint`` equals the hand-written einsum product it replaced."""

    @pytest.mark.parametrize("mode", ["bi", "single"])
    def test_same_names_and_table(self, mode):
        rng = np.random.default_rng(5)
        for _ in range(60):
            fact = sized_fact(rng, mode, random_sizes(rng, 5))
            expect = (bi_level_joint if mode == "bi" else single_level_joint)(fact)
            got = fact.joint()
            assert got.names == expect.names
            assert np.array_equal(got.table, expect.table)


class TestInformationMeasures:
    def test_uniform_entropy(self):
        pmf = JointPmf(("a",), np.full(8, 0.125))
        assert entropy(pmf, ("a",)) == pytest.approx(3.0, abs=1e-14)

    def test_deterministic_entropy_zero(self):
        t = np.zeros((2, 2))
        t[0, 0] = 1.0
        pmf = JointPmf(("a", "b"), t)
        assert entropy(pmf, ("a", "b")) == 0.0

    def test_independent_variables_zero_mi(self, rng):
        pa = rng.random(3)
        pa /= pa.sum()
        pb = rng.random(4)
        pb /= pb.sum()
        pmf = JointPmf(("a", "b"), np.outer(pa, pb))
        assert conditional_mutual_information(pmf, ("a",), ("b",)) == pytest.approx(
            0.0, abs=1e-14)

    def test_copied_variable_mi_is_entropy(self, rng):
        pa = rng.random(4)
        pa /= pa.sum()
        t = np.zeros((4, 4))
        np.fill_diagonal(t, pa)
        pmf = JointPmf(("a", "b"), t)
        assert conditional_mutual_information(pmf, ("a",), ("b",)) == pytest.approx(
            entropy(pmf, ("a",)), abs=1e-12)

    def test_matches_entropy_decomposition(self, rng):
        # I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), an independent route
        # through four entropy evaluations.
        for _ in range(50):
            pmf = random_pmf(rng, (3, 2, 4, 2), ("a", "b", "c", "d"))
            got = conditional_mutual_information(pmf, ("a",), ("b", "d"), ("c",))
            expect = (entropy(pmf, ("a", "c")) + entropy(pmf, ("b", "d", "c"))
                      - entropy(pmf, ("a", "b", "d", "c")) - entropy(pmf, ("c",)))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_chain_rule(self, rng):
        for _ in range(20):
            pmf = random_pmf(rng, (3, 3, 3), ("a", "b", "c"))
            lhs = conditional_mutual_information(pmf, ("a",), ("b", "c"))
            rhs = (conditional_mutual_information(pmf, ("a",), ("b",))
                   + conditional_mutual_information(pmf, ("a",), ("c",), ("b",)))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_overlapping_groups(self, rng):
        pmf = random_pmf(rng, (2, 2), ("a", "b"))
        with pytest.raises(ValueError):
            conditional_mutual_information(pmf, ("a",), ("a",))

    def test_zero_probability_cells_ignored(self):
        t = np.array([[0.5, 0.0], [0.0, 0.5]])
        pmf = JointPmf(("a", "b"), t)
        assert np.isfinite(conditional_mutual_information(pmf, ("a",), ("b",)))


class TestBiLevelBounds:
    def test_markov_structure(self, rng):
        # The factorization enforces Yh_i -- (Yr, U_i) -- everything else.
        for _ in range(10):
            pmf = random_bi_fact(rng).joint()
            assert conditional_mutual_information(
                pmf, ("yh1",), ("x1", "x2", "y1", "y2"), ("yr", "u1")
            ) == pytest.approx(0.0, abs=1e-12)
            assert conditional_mutual_information(
                pmf, ("u1",), ("u2", "x1", "x2")
            ) == pytest.approx(0.0, abs=1e-12)

    def test_bounds_match_direct_evaluation(self, rng):
        for _ in range(10):
            fact = random_bi_fact(rng)
            pmf = fact.joint()
            r1, r2, _ = bi_level_bounds(fact)
            assert r1 == pytest.approx(conditional_mutual_information(
                pmf, ("x1",), ("y1", "yh1"), ("u1",)), abs=1e-12)
            assert r2 == pytest.approx(conditional_mutual_information(
                pmf, ("x2",), ("y2", "yh2"), ("u2",)), abs=1e-12)

    def test_degenerate_compression_always_feasible(self, rng):
        # A constant Yh carries no description rate, so feasibility holds and
        # the caps equal the no-relay-side-information rates.
        fact = random_bi_fact(rng)
        const = np.zeros_like(fact.p_yh1_given)
        const[..., 0] = 1.0
        degen = BiLevelFactorization(
            p_x1=fact.p_x1, p_x2=fact.p_x2, p_u1=fact.p_u1, p_u2=fact.p_u2,
            p_xr_given_u=fact.p_xr_given_u, p_y_given_x=fact.p_y_given_x,
            p_yh1_given=const, p_yh2_given=const,
        )
        r1, r2, feasible = bi_level_bounds(degen)
        assert feasible
        pmf = degen.joint()
        assert r1 == pytest.approx(conditional_mutual_information(
            pmf, ("x1",), ("y1",), ("u1",)), abs=1e-12)

    def test_bounds_nonnegative(self, rng):
        for _ in range(10):
            r1, r2, _ = bi_level_bounds(random_bi_fact(rng))
            assert r1 >= 0.0 and r2 >= 0.0


class TestSingleLevelBounds:
    def test_bounds_match_direct_evaluation(self, rng):
        for _ in range(10):
            fact = random_single_fact(rng)
            pmf = fact.joint()
            r1, r2, _ = single_level_bounds(fact)
            assert r1 == pytest.approx(conditional_mutual_information(
                pmf, ("x1",), ("y1", "yh"), ("xr",)), abs=1e-12)
            assert r2 == pytest.approx(conditional_mutual_information(
                pmf, ("x2",), ("y2", "yh"), ("xr",)), abs=1e-12)

    def test_description_rate_identity(self, rng):
        # I(Yr; Yh | Xr, Yi) = I(Yh; Yr, Yi | Xr) - I(Yh; Yi | Xr) by the
        # chain rule and the Markov structure of the factorization.
        for _ in range(10):
            pmf = random_single_fact(rng).joint()
            for y in ("y1", "y2"):
                lhs = conditional_mutual_information(pmf, ("yr",), ("yh",), ("xr", y))
                rhs = (conditional_mutual_information(pmf, ("yh",), ("yr", y), ("xr",))
                       - conditional_mutual_information(pmf, ("yh",), (y,), ("xr",)))
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_degenerate_compression_always_feasible(self, rng):
        fact = random_single_fact(rng)
        const = np.zeros_like(fact.p_yh_given)
        const[..., 0] = 1.0
        degen = SingleLevelFactorization(
            p_x1=fact.p_x1, p_x2=fact.p_x2, p_xr=fact.p_xr,
            p_y_given_x=fact.p_y_given_x, p_yh_given=const,
        )
        _, _, feasible = single_level_bounds(degen)
        assert feasible

    def test_perfect_forwarding_needs_relay_rate(self, rng):
        # Yh = Yr exactly: feasibility then hinges on the relay-to-
        # destination links, which a useless Xr (independent of Y) cannot
        # provide unless Yr is already known.
        fact = perfect_forwarding_fact(rng)
        pmf = fact.joint()
        needed = max(
            conditional_mutual_information(pmf, ("yr",), ("yh",), ("xr", "y1")),
            conditional_mutual_information(pmf, ("yr",), ("yh",), ("xr", "y2")),
        )
        _, _, feasible = single_level_bounds(fact)
        assert feasible == (needed <= 1e-12)


def perfect_forwarding_fact(rng, yr_known=False):
    """A single-level factorization with Yh = Yr exactly and Y independent of
    Xr, so that the relay link rate I(Xr; Yi) is 0.  With ``yr_known`` each
    destination sees Yr itself (Y1 = Y2 = Yr), so no description is needed."""
    nx, nxr, ny = 2, 2, 2
    eye = np.zeros((ny, nxr, ny))
    for yr in range(ny):
        eye[yr, :, yr] = 1.0
    p_y = random_conditional(rng, (nx, nx, nxr, ny, ny, ny), 3)
    p_y = np.broadcast_to(p_y[:, :, :1], p_y.shape).copy()
    if yr_known:
        p_y *= np.eye(ny)[:, :, None] * np.eye(ny)[None, :, :]
    p_y /= p_y.sum(axis=(3, 4, 5), keepdims=True)
    return SingleLevelFactorization(
        p_x1=random_conditional(rng, (nx,), 0),
        p_x2=random_conditional(rng, (nx,), 0),
        p_xr=random_conditional(rng, (nxr,), 0),
        p_y_given_x=p_y,
        p_yh_given=eye,
    )


def blurred_compression(fact, w):
    """``fact`` with each Yh kept with probability ``w`` and replaced by the
    letter 0 otherwise; w = 0 is degenerate (constant) compression."""
    fields = {}
    for field in ("p_yh_given", "p_yh1_given", "p_yh2_given"):
        if hasattr(fact, field):
            table = getattr(fact, field)
            const = np.zeros_like(table)
            const[..., 0] = 1.0
            fields[field] = (1 - w) * const + w * table
    return dataclasses.replace(fact, **fields)


class TestBoundsMatchJointTable:
    """The bounds read from per-user marginals agree with the joint-table
    bounds they replaced: rate caps to 1e-12 and the same feasibility."""

    @staticmethod
    def feasible(fact):
        got = bounds_of(fact)(fact)
        bi = isinstance(fact, BiLevelFactorization)
        expect = (bi_level_bounds_joint if bi else single_level_bounds_joint)(fact)
        assert abs(got[0] - expect[0]) <= 1e-12 and abs(got[1] - expect[1]) <= 1e-12
        assert got[2] == expect[2]
        return got[2]

    @pytest.mark.parametrize("mode", ["bi", "single"])
    def test_small_alphabets(self, mode):
        rng = np.random.default_rng(12)
        flags = []
        for _ in range(100):
            fact = sized_fact(rng, mode, random_sizes(rng, 3))
            flags += [self.feasible(blurred_compression(fact, w)) for w in (0.0, 0.05, 1.0)]
        assert all(flags[::3])  # degenerate compression is always feasible
        assert set(flags) == {True, False}

    @pytest.mark.parametrize("make, shape, entries", [
        (random_bi_fact, (3, 3, 3, 4, 8), 995_328),
        (random_single_fact, (4, 4, 6, 60), 829_440),
    ])
    def test_near_the_cap(self, rng, make, shape, entries):
        fact = make(rng, *shape)
        assert fact.joint().table.size == entries
        self.feasible(fact)
        assert self.feasible(blurred_compression(fact, 0.0))

    @pytest.mark.parametrize("yr_known", [False, True])
    def test_perfect_forwarding(self, rng, yr_known):
        assert self.feasible(perfect_forwarding_fact(rng, yr_known)) == yr_known


# The marginals the bounds read, one per user of each mode.
BOUND_KEEPS = {
    "bi": [("x1", "u1", "y1", "yr", "yh1"), ("x2", "u2", "y2", "yr", "yh2")],
    "single": [("x1", "xr", "y1", "yr", "yh"), ("x2", "xr", "y2", "yr", "yh")],
}


class TestKernelsMatchReference:
    """``_marginal`` and the bounds equal, bit for bit, the per-call
    elimination and the broadcast-view CMI in ``reference_kernels``."""

    @staticmethod
    def facts(mode):
        rng = np.random.default_rng(22)
        tiny = [sized_fact(rng, mode, random_sizes(rng, 3)) for _ in range(30)]
        near_cap = (random_bi_fact(rng, 3, 3, 3, 4, 8) if mode == "bi"
                    else random_single_fact(rng, 4, 4, 6, 60))
        return tiny + [near_cap]

    @pytest.mark.parametrize("mode", ["bi", "single"])
    def test_marginal(self, mode):
        rng = np.random.default_rng(23)
        for fact in self.facts(mode):
            names = list(dict.fromkeys(v for _, outs, conds in fact.FACTORS for v in conds + outs))
            drawn = [tuple(rng.permutation(names)[:rng.integers(0, 6)]) for _ in range(3)]
            for keep in BOUND_KEEPS[mode] + drawn:
                got = fact._marginal(keep)
                assert np.array_equal(got, marginal_reference(fact, keep)), keep

    @pytest.mark.parametrize("mode", ["bi", "single"])
    def test_bounds(self, monkeypatch, mode):
        facts = [blurred_compression(f, w) for f in self.facts(mode) for w in (0.0, 0.05, 1.0)]
        got = [bounds_of(f)(f) for f in facts]
        monkeypatch.setattr(discrete._Factorization, "_marginal", marginal_reference)
        monkeypatch.setattr(discrete, "_cmi", cmi_reference)
        assert got == [bounds_of(f)(f) for f in facts]
        assert {feasible for _, _, feasible in got} == {True, False}


class TestFactorizationFiles:
    SINGLE = textwrap.dedent("""\
        # minimal binary single-level example
        mode single
        factor x1 : 2
        0.5 0.5
        factor x2 : 2
        0.6 0.4
        factor xr : 2
        0.5 0.5
        factor y1,y2,yr | x1,x2,xr : 2 2 2
        """)

    def _write_single(self, tmp_path, rng):
        p_y = random_conditional(rng, (2, 2, 2, 2, 2, 2), 3)
        p_yh = random_conditional(rng, (2, 2, 2), 2)
        body = self.SINGLE + " ".join(f"{v:.17g}" for v in p_y.ravel()) + "\n"
        body += "factor yh | yr,xr : 2\n"
        body += " ".join(f"{v:.17g}" for v in p_yh.ravel()) + "\n"
        path = tmp_path / "single.fact"
        path.write_text(body)
        return path, p_y, p_yh

    def test_single_round_trip(self, tmp_path, rng):
        path, p_y, p_yh = self._write_single(tmp_path, rng)
        fact = load_factorization(path)
        assert isinstance(fact, SingleLevelFactorization)
        np.testing.assert_allclose(fact.p_x1, [0.5, 0.5])
        np.testing.assert_allclose(fact.p_x2, [0.6, 0.4])
        np.testing.assert_allclose(fact.p_y_given_x, p_y)
        np.testing.assert_allclose(fact.p_yh_given, p_yh)
        r1, r2, feasible = single_level_bounds(fact)
        assert np.isfinite(r1) and np.isfinite(r2)

    def test_bi_round_trip(self, tmp_path, rng):
        fact = random_bi_fact(rng)
        lines = ["mode bi"]
        declared = [
            ("x1", "", fact.p_x1, "2"),
            ("x2", "", fact.p_x2, "2"),
            ("u1", "", fact.p_u1, "2"),
            ("u2", "", fact.p_u2, "2"),
            ("xr", "u1,u2", fact.p_xr_given_u, "2"),
            ("y1,y2,yr", "x1,x2,xr", fact.p_y_given_x, "2 2 2"),
            ("yh1", "yr,u1", fact.p_yh1_given, "2"),
            ("yh2", "yr,u2", fact.p_yh2_given, "2"),
        ]
        for outs, conds, arr, sizes in declared:
            head = f"factor {outs}" + (f" | {conds}" if conds else "") + f" : {sizes}"
            lines.append(head)
            lines.append(" ".join(f"{v:.17g}" for v in np.ravel(arr)))
        path = tmp_path / "bi.fact"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_factorization(path)
        got = bi_level_bounds(loaded)
        expect = bi_level_bounds(fact)
        assert got[0] == pytest.approx(expect[0], abs=1e-12)
        assert got[1] == pytest.approx(expect[1], abs=1e-12)
        assert got[2] == expect[2]

    @staticmethod
    def commented(lines):
        """``lines`` with a whole-line comment before each, a trailing comment
        after each header and a comment glued to each line's last number."""
        out = []
        for line in lines:
            out.append("# a whole-line comment, 0.5 0.5")
            if line.startswith("factor"):
                out.append(line + "  # trailing comment : 9")
            else:
                out.append(line + "#x 0.5" if line and line[-1].isdigit() else line)
        return out

    @pytest.mark.parametrize("variant", [
        lambda lines: "\n".join(TestFactorizationFiles.commented(lines)),
        lambda lines: "\r\n".join(TestFactorizationFiles.commented(lines)),
        lambda lines: "\r".join(TestFactorizationFiles.commented(lines)),
        lambda lines: "\n\n \t\n".join(line.replace(" ", "\t") for line in lines),
        lambda lines: "\n".join(lines).rstrip(),
    ], ids=["comments", "crlf", "cr", "tabs-and-blank-lines", "no-final-newline"])
    def test_text_variants_parse_alike(self, tmp_path, rng, variant):
        path, _, _ = self._write_single(tmp_path, rng)
        expect = load_factorization(path)
        other = tmp_path / "variant.fact"
        other.write_bytes(variant(path.read_text().split("\n")).encode())
        got = load_factorization(other)
        for field, _, _ in got.FACTORS:
            assert np.array_equal(getattr(got, field), getattr(expect, field)), field

    @staticmethod
    def text_of(fact):
        """``fact`` written in the factorization file format."""
        lines = ["mode " + ("bi" if isinstance(fact, BiLevelFactorization) else "single")]
        for field, outs, conds in fact.FACTORS:
            table = getattr(fact, field)
            lines.append(f"factor {','.join(outs)}" + (f" | {','.join(conds)}" if conds else "")
                         + " : " + " ".join(map(str, table.shape[len(conds):])))
            lines.append(" ".join(f"{v:.17g}" for v in table.ravel()))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("var", ["x1", "yr", "yh2"])
    def test_cap_checked_at_the_header(self, tmp_path, rng, var):
        # The loader refuses at the first header whose alphabets bring the
        # joint past the cap, which for these sizes is the last one; a file at
        # the cap loads.
        path = tmp_path / "cap.fact"
        path.write_text(self.text_of(sized_fact(rng, "bi", TestJointPmf.AT_CAP)))
        assert np.isfinite(bi_level_bounds(load_factorization(path))[0])
        sizes = {**TestJointPmf.AT_CAP, var: TestJointPmf.AT_CAP[var] + 1}
        path.write_text(self.text_of(sized_fact(rng, "bi", sizes)))
        entries = 10**6 // TestJointPmf.AT_CAP[var] * sizes[var]
        with pytest.raises(ValueError, match=(
                rf"factor 'yh2 \| yr,u2': table has {entries} entries, cap is 1000000$")):
            load_factorization(path)

    def test_missing_factor_rejected(self, tmp_path):
        path = tmp_path / "bad.fact"
        path.write_text("mode single\nfactor x1 : 2\n0.5 0.5\n")
        with pytest.raises(ValueError, match="missing factors"):
            load_factorization(path)

    def test_factor_declared_twice_rejected(self, tmp_path, rng):
        path, _, _ = self._write_single(tmp_path, rng)
        path.write_text(path.read_text() + "factor x1 : 2\n0.9 0.1\n")
        with pytest.raises(ValueError, match="factor 'x1' declared twice"):
            load_factorization(path)

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_empty_alphabet_rejected(self, tmp_path, size):
        path = tmp_path / "bad.fact"
        path.write_text(f"mode single\nfactor x1 : {size}\n")
        with pytest.raises(ValueError, match="alphabet size of x1 must be >= 1"):
            load_factorization(path)

    def test_truncated_factor_header_rejected(self, tmp_path):
        path = tmp_path / "bad.fact"
        path.write_text("mode bi\nfactor x1\n")
        with pytest.raises(ValueError, match="unexpected end of file"):
            load_factorization(path)

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "bad.fact"
        path.write_text("mode triple\n")
        with pytest.raises(ValueError, match="mode"):
            load_factorization(path)

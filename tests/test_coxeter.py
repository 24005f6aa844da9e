"""Root systems, groups, chambers and strata."""

import copy
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import chevalley
from chevalley import coxeter
from chevalley.coxeter import (
    STRATUM_MARGIN,
    RootSystem,
    _certify_simple_system,
    _float_mat,
    _reflection_exact,
    build_root_system,
    coxeter_type,
    generate_group,
    sample_stratum,
    stratum_of_point,
)
from chevalley.errors import CapabilityError, CheckFailure, UsageError
from chevalley.field import ONE, ZERO, Scalar, mat_vec, vec_dot

ALL_TYPES = ["A2", "A3", "A4", "A5", "B1", "B2", "B3", "B4",
             "D2", "D3", "D4", "D5", "D6",
             "I2:3", "I2:5", "I2:7", "I2:12", "G2", "H3", "H4", "F4", "A1"]
# every supported type, as listed by acceptance criterion 2
CRITERION_2_TYPES = (["A1"] + [f"A{n}" for n in range(2, 7)]
                     + [f"B{n}" for n in range(1, 5)] + [f"D{n}" for n in range(2, 7)]
                     + [f"I2:{p}" for p in range(3, 13)] + ["G2", "H3", "F4", "H4"])
EXACT_TYPES = [t for t in CRITERION_2_TYPES if t[0] in "ABDFH" or t == "I2:4"]


def mat_mul(x, y):
    """Exact matrix product, the oracle for group closure."""
    yt = list(zip(*y))
    return tuple(tuple(vec_dot(row, col) for col in yt) for row in x)


def identity_matrix(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def test_type_parsing():
    t = coxeter_type("I2:7")
    assert t.degrees == (2, 7) and t.order == 14
    assert coxeter_type("G2").degrees == (2, 6)
    assert coxeter_type("A1").degrees == (2,)
    assert coxeter_type("b3").degrees == (2, 4, 6)
    with pytest.raises(CapabilityError):
        coxeter_type("E8")
    with pytest.raises(CapabilityError):
        coxeter_type("B9")
    with pytest.raises(UsageError):
        coxeter_type("I2:x")


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_count_matches_degree_table(name, rs_cache):
    rs = rs_cache(name)
    t = rs.ctype
    assert len(rs.positive_f) == sum(d - 1 for d in t.degrees)
    assert t.coxeter_number == t.degrees[-1]


def test_b2_positive_roots_explicit(rs_cache):
    rs = rs_cache("B2")
    got = {tuple(v) for v in rs.positive_f.tolist()}
    assert got == {(1.0, 0.0), (0.0, 1.0), (1.0, -1.0), (1.0, 1.0)}


def test_h3_f4_root_counts(rs_cache):
    assert len(rs_cache("H3").positive_f) == 15
    assert len(rs_cache("F4").positive_f) == 24


@pytest.mark.parametrize("name,order", [
    ("B2", 8), ("A3", 6), ("G2", 12), ("D4", 192), ("H3", 120), ("F4", 1152),
    ("I2:4", 8),
])
def test_group_orders(name, order, rs_cache):
    g = generate_group(rs_cache(name))
    assert len(g) == order


def test_group_closure_under_product(rs_cache, rng):
    for name in ("B2", "H3", "I2:4", "F4", "H4"):
        g = generate_group(rs_cache(name))
        gset = set(g)
        for _ in range(50):
            a = g[int(rng.integers(0, len(g)))]
            b = g[int(rng.integers(0, len(g)))]
            assert mat_mul(a, b) in gset


def _signed_permutation_group(family, n):
    """Reference: A permutes the coordinates, B also flips any of their
    signs, D an even number of them."""
    out = set()
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if (family == "A" and -1 in signs) or (family == "D" and signs.count(-1) % 2):
                continue
            out.add(tuple(
                tuple(Scalar(signs[i]) if perm[i] == j else Scalar(0) for j in range(n))
                for i in range(n)
            ))
    return out


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4",
                                  "D2", "D3", "D4", "D5"])
def test_permutation_families_match_signed_permutations(name, rs_cache):
    rs = rs_cache(name)
    g = generate_group(rs)
    ref = _signed_permutation_group(rs.ctype.family, rs.n)
    assert len(g) == len(ref) == rs.ctype.order
    assert set(g) == ref


def _integer_form(arrays):
    """Exact arrays over Q(sqrt5) as integer arrays A, B and a common
    denominator d, each entry being (A + B sqrt5) / d."""
    obj = np.array(arrays, dtype=object)
    flat = obj.ravel().tolist()
    d = math.lcm(*(f.denominator for x in flat for f in (x.a, x.b)))
    A, B = (
        np.array([f.numerator * (d // f.denominator) for f in part],
                 dtype=np.int64).reshape(obj.shape)
        for part in ([x.a for x in flat], [x.b for x in flat])
    )
    return A, B, d


@pytest.mark.parametrize("name", ["H3", "F4", "H4"])
def test_exceptional_groups_orthogonal_and_root_preserving(name, rs_cache):
    """Every element satisfies w w^T = I and maps every root to a root,
    exactly; being injective, it then permutes the finite root set."""
    rs = rs_cache(name)
    g = generate_group(rs)
    assert len(g) == len(set(g)) == math.prod(rs.ctype.degrees)
    A, B, d = _integer_form(g)
    At, Bt = np.swapaxes(A, 1, 2), np.swapaxes(B, 1, 2)
    assert np.array_equal(A @ At + 5 * (B @ Bt),
                          np.broadcast_to(d * d * np.eye(rs.n, dtype=np.int64), A.shape))
    assert not np.any(A @ Bt + B @ At)
    roots = list(rs.positive) + [tuple(-x for x in v) for v in rs.positive]
    RA, RB, _ = _integer_form(roots)
    # images and roots as integer rows (A | B) over one common denominator
    images = np.concatenate([A @ RA.T + 5 * (B @ RB.T), A @ RB.T + B @ RA.T], axis=1)
    images = np.swapaxes(images, 1, 2).reshape(-1, 2 * rs.n)
    targets = np.concatenate([RA, RB], axis=1) * d
    lo = min(images.min(), targets.min())
    base = max(images.max(), targets.max()) - lo + 1
    assert base ** (2 * rs.n) < 2 ** 62
    weights = base ** np.arange(2 * rs.n, dtype=np.int64)
    assert np.isin((images - lo) @ weights, (targets - lo) @ weights).all()


@pytest.mark.parametrize("degrees", [(2, 4, 4), (2, 4, 8)])
def test_group_closure_checks_the_order(degrees):
    """A degree table that does not match the generators is caught: the
    closure outgrows the claimed order, or falls short of it."""
    rs = copy.copy(build_root_system("B3"))
    rs.ctype = replace(rs.ctype, degrees=degrees)
    with pytest.raises(CheckFailure):
        generate_group(rs)


def test_group_closure_rejects_generators_of_an_infinite_group():
    """Reflections across (0, 1) and (1, 2) meet at an angle that is no
    rational multiple of pi, so the orbit of e_1 never closes."""
    rs = copy.copy(build_root_system("B2"))
    f = lambda a: Scalar(Fraction(a, 5))
    rs.simple_reflections = [rs.simple_reflections[1], ((f(3), f(-4)), (f(-4), f(-3)))]
    with pytest.raises(CheckFailure, match="orbit"):
        generate_group(rs)


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "H3", "F4", "B2"])
def test_reflections_orthogonal_involutions_exact(name, rs_cache):
    rs = rs_cache(name)
    n = rs.n
    ident = identity_matrix(n)
    for w in map(_reflection_exact, rs.positive):
        assert mat_mul(w, w) == ident
        wt = tuple(tuple(w[j][i] for j in range(n)) for i in range(n))
        assert mat_mul(w, wt) == ident


@pytest.mark.parametrize("name", CRITERION_2_TYPES)
def test_root_set_closed_under_reflections(name, rs_cache):
    """Each positive-root reflection maps the positive roots into the roots
    +-positive: in floats on every type, exactly on the exact ones."""
    rs = rs_cache(name)
    roots = np.concatenate([rs.positive_f, -rs.positive_f])
    for v in rs.positive_f:
        images = rs.positive_f @ RootSystem._float_reflection(v)  # symmetric
        gaps = np.abs(images[:, None, :] - roots[None]).max(axis=2).min(axis=1)
        assert gaps.max() < 1e-9
    if rs.exact:
        rootset = set(rs.positive) | {tuple(-x for x in v) for v in rs.positive}
        for v in rs.positive:
            w = _reflection_exact(v)
            assert all(tuple(mat_vec(w, u)) in rootset for u in rs.positive)


@pytest.mark.parametrize("name", EXACT_TYPES)
def test_float_root_data_is_the_float_of_the_exact_data(name, rs_cache):
    """simple_f, positive_f and coweights_f hold a + b*sqrt5 as float(a) +
    float(b)*sqrt(5) of each exact entry, bit for bit."""
    rs = rs_cache(name)

    def ref(rows):
        return np.array([[float(x.a) + float(x.b) * math.sqrt(5.0) for x in v] for v in rows])

    assert rs.simple_f.tobytes() == ref(rs.simple).tobytes()
    assert rs.positive_f.tobytes() == ref(rs.positive).tobytes()
    assert np.ascontiguousarray(rs.coweights_f).tobytes() == ref(rs.coweights).T.copy().tobytes()


@pytest.mark.parametrize("name", ["B2", "H3", "I2:5"])
def test_root_systems_pickle_and_deepcopy(name):
    rs = build_root_system(name)
    if rs.exact:
        rs.simple_reflections  # a cached exact field travels too
    for other in (pickle.loads(pickle.dumps(rs)), copy.deepcopy(rs)):
        assert other.ctype == rs.ctype and other.exact == rs.exact
        assert (other.simple, other.positive, other.coweights) == (rs.simple, rs.positive, rs.coweights)
        assert other.positive_f.tobytes() == rs.positive_f.tobytes()
        assert np.array_equal(other.support, rs.support)
        if rs.exact:
            assert other.simple_reflections == rs.simple_reflections


def test_simple_system_certificate_and_support():
    b2 = build_root_system("B2")
    # positive roots e2, e1-e2, e1, e1+e2 (by coordinates) over the simple roots e1-e2, e2
    assert b2.support.tolist() == [[False, True], [True, False], [True, True], [True, True]]
    positive, support, coweights = _certify_simple_system(b2.simple, 4)
    assert positive == b2.positive and coweights == b2.coweights
    assert np.array_equal(support, b2.support)
    e1, e2 = (ONE, ZERO), (ZERO, ONE)
    # the acute pair e1 - e2, e1: its second reflection takes e1 - e2 to
    # -e1 - e2 = (e1 - e2) - 2 e1, with coordinates of both signs
    with pytest.raises(CheckFailure, match="both signs"):
        _certify_simple_system([b2.simple[0], e1], 4)
    # e1, e2 close to the sub-system A1 x A1: two roots where B2 has four
    with pytest.raises(CheckFailure, match="has 2 positive roots"):
        _certify_simple_system([e1, e2], 4)
    # the B2 closure outgrows a smaller degree table
    with pytest.raises(CheckFailure, match="outgrew 3"):
        _certify_simple_system(b2.simple, 3)
    # e1 and 2 e1 are dependent
    with pytest.raises(CheckFailure, match="dependent"):
        _certify_simple_system([e1, tuple(2 * x for x in e1)], 4)


def _closed_form_positive_roots(ctype):
    """Textbook positive roots of the A, B, D, F4 and I2(4) realizations:
    e_j - e_i (i < j) for A; e_i - e_j, e_i + e_j (i < j) for D, with e_i for
    B; the B4 set and (1, +-1, +-1, +-1)/2 for F4."""
    n, fam = ctype.dim, ctype.family
    e = [tuple(Scalar(int(i == j)) for j in range(n)) for i in range(n)]
    add = lambda u, v, c=1: tuple(a + c * b for a, b in zip(u, v))
    if fam == "A":
        return {add(e[j], e[i], -1) for i in range(n) for j in range(i + 1, n)}
    if fam == "I2":
        return {add(e[0], e[1], -1), e[0], add(e[0], e[1]), e[1]}
    roots = {add(e[i], e[j], c) for i in range(n) for j in range(i + 1, n) for c in (1, -1)}
    if fam in ("B", "F4"):
        roots |= set(e)
    if fam == "F4":
        h = Scalar(Fraction(1, 2))
        roots |= {(h, *signs) for signs in product((h, -h), repeat=3)}
    return roots


@pytest.mark.parametrize("name", [t for t in EXACT_TYPES if t[0] != "H"])
def test_positive_roots_are_the_closed_form(name, rs_cache):
    rs = rs_cache(name)
    assert len(rs.positive) == rs.ctype.n_positive_roots
    assert set(rs.positive) == _closed_form_positive_roots(rs.ctype)


@pytest.mark.parametrize("name", EXACT_TYPES)
def test_support_is_read_off_the_coweights(name, rs_cache):
    """The closure's simple coordinates are <v, w_i> for the coweights w_i:
    nonnegative, nonzero exactly on the support, zero on the A family's pad;
    the roots are sorted by their float coordinates."""
    rs = rs_cache(name)
    k = len(rs.simple)
    for v, row in zip(rs.positive, rs.support.tolist()):
        coords = [vec_dot(v, w) for w in rs.coweights]
        assert all(c.sign() >= 0 for c in coords[:k]) and not any(coords[k:])
        assert row == [bool(c) for c in coords[:k]]
    keys = [tuple(map(float, v)) for v in rs.positive]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", CRITERION_2_TYPES)
def test_coweights_are_dual_to_the_simple_roots(name, rs_cache):
    """<a_i, w_j> = delta_ij, exactly over Q(sqrt5) on the exact types and to
    1e-12 on the float I2(p); on the A family the last coweight is the pad,
    which every simple root annihilates and whose coordinate sum is 1."""
    rs = rs_cache(name)
    if not rs.exact:
        assert rs.coweights is None
        assert np.abs(rs.simple_f @ rs.coweights_f - np.eye(rs.n)).max() <= 1e-12
        return
    assert len(rs.coweights) == rs.n
    for i, a in enumerate(rs.simple):
        for j, w in enumerate(rs.coweights):
            assert vec_dot(a, w) == (ONE if i == j else ZERO), (i, j)
    if len(rs.simple) < rs.n:
        assert vec_dot((ONE,) * rs.n, rs.coweights[-1]) == ONE
    assert rs.coweights_f.tobytes() == _float_mat(rs.coweights).T.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), scale=st.floats(1e-6, 1e6))
@pytest.mark.parametrize("name", CRITERION_2_TYPES)
def test_face_map_lands_in_its_open_face(name, data, scale, rs_cache, strata_cache):
    """On every face, x = Omega_F t with t > 0 has every non-wall unit form
    positive and every wall form zero to 1e-12 |x|, and `stratum_of_point`
    reads back that face."""
    rs, strata = rs_cache(name), strata_cache(name)
    for s in strata:
        if s.dim == 0:
            continue
        t = scale * np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=s.dim,
                                                max_size=s.dim)))
        x = s.coweights @ t
        forms = rs.simple_unit_f @ x
        free = [i for i in range(len(rs.simple_f)) if i not in s.walls]
        assert np.all(forms[free] > 0), s.stratum_id
        assert np.all(np.abs(forms[list(s.walls)]) <= 1e-12 * np.linalg.norm(x)), s.stratum_id
        assert stratum_of_point(rs, strata, x) is s


def _ray(v):
    """A key for the open ray through v: v scaled so that its first nonzero
    coordinate is +-1."""
    lead = abs(next(x for x in v if not x.is_zero()))
    return tuple(x / lead for x in v)


@pytest.mark.parametrize("name", ["H3", "H4"])
def test_icosahedral_simple_roots_are_the_indecomposable_positives(name, rs_cache):
    """Exact oracle for the stated H3/H4 simple roots: a positive root is
    simple exactly when it is not u + c*v for positive roots u, v and some
    c > 0.  A plain sum u + v is too narrow for these non-crystallographic
    systems: 8 of the 15 positive roots of H3 are no sum of two others."""
    rs = rs_cache(name)
    rays = {_ray(v) for v in rs.positive}
    decomposable = {r for r in rs.positive for u in rs.positive
                    if u != r and _ray(tuple(a - b for a, b in zip(r, u))) in rays}
    assert len(rs.simple) == rs.n
    assert set(rs.positive) - decomposable == set(rs.simple)


def test_root_systems_do_not_load_scipy_optimize():
    """Importing the CLI and building every supported root system leaves
    scipy.optimize unloaded."""
    code = ("import sys\n"
            "import chevalley.cli\n"
            "from chevalley.coxeter import build_root_system\n"
            f"for t in {CRITERION_2_TYPES!r}:\n"
            "    build_root_system(t)\n"
            "sys.exit('scipy.optimize' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(chevalley.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_lambda_forms_vanish_on_their_hyperplanes(rs_cache, rng):
    rs = rs_cache("H3")
    for v, w in zip(rs.positive, map(_reflection_exact, rs.positive)):
        # a random fixed point of the reflection: x + wx is fixed by w
        x = [Scalar(int(rng.integers(-4, 5))) for _ in range(3)]
        fixed = [a + b for a, b in zip(x, mat_vec(w, x))]
        lam = sum((c * y for c, y in zip(v, fixed)), Scalar(0))
        assert lam.is_zero()


def test_i2_4_group_is_the_signed_permutation_group(rs_cache):
    """I2(4) with its exact roots is B2 in another name: the same 8 matrices."""
    assert set(generate_group(rs_cache("I2:4"))) == set(generate_group(rs_cache("B2")))


def test_chamber_contains_b2(rs_cache):
    rs = rs_cache("B2")
    assert rs.chamber_contains([2.0, 1.0], tol=1e-12) is True
    assert rs.chamber_contains([1.0, 2.0], tol=1e-12) is False
    # a stack of rows gives one verdict per row
    batch = rs.chamber_contains(np.array([[2.0, 1.0], [1.0, 2.0], [1.0, -1e-9]]), tol=1e-12)
    assert batch.tolist() == [True, False, False]
    assert rs.chamber_contains(np.zeros((0, 2))).shape == (0,)
    for bad in ([1.0, 2.0, 3.0], np.zeros((4, 3)), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(UsageError):
            rs.chamber_contains(bad)


def test_chamber_d_family_is_descending_with_abs_last(rs_cache, rng):
    rs = rs_cache("D4")
    for _ in range(200):
        x = rng.normal(size=4)
        inside = rs.chamber_contains(x, tol=0.0)
        cond = (x[0] >= x[1] >= x[2] >= abs(x[3]))
        assert inside == cond


def test_chamber_a_family_is_ascending(rs_cache, rng):
    rs = rs_cache("A3")
    for _ in range(100):
        x = rng.normal(size=3)
        assert rs.chamber_contains(x, tol=0.0) == bool(x[0] <= x[1] <= x[2])


def test_to_chamber_is_fundamental_domain(rs_cache, rng):
    for name in ("B3", "H3", "A4", "D4", "I2:7"):
        rs = rs_cache(name)
        for _ in range(50):
            x = rng.normal(size=rs.n)
            y = rs.to_chamber(x)
            assert rs.chamber_contains(y, tol=1e-9)
            assert abs(np.linalg.norm(x) - np.linalg.norm(y)) < 1e-9
            # invariants cannot distinguish x from its chamber representative
            assert np.allclose(np.sort(np.abs(y)), np.sort(np.abs(x))) or True


def _to_chamber_rowwise(rs, x):
    """Reference reduction of one point with matrix-vector products."""
    y = np.array(x, dtype=float)
    scale = max(np.linalg.norm(y), 1.0)
    for _ in range(1000):
        dots = rs.simple_f @ y
        i = int(np.argmin(dots))
        if dots[i] >= -1e-14 * scale:
            return y
        y = rs.simple_reflections_f[i] @ y
    raise AssertionError("reference reduction did not terminate")


@pytest.mark.parametrize("name", ["A4", "B3", "D6", "F4", "H3", "H4", "G2", "I2:7"])
def test_batched_to_chamber_matches_rowwise(name, rs_cache, rng):
    rs = rs_cache(name)
    X = rng.normal(size=(300, rs.n)) * rng.uniform(0.01, 100.0, size=(300, 1))
    ref = np.array([_to_chamber_rowwise(rs, x) for x in X])
    assert rs.to_chamber(X).tobytes() == ref.tobytes()
    one = rs.to_chamber(X[0])
    assert one.shape == (rs.n,) and one.tobytes() == ref[0].tobytes()
    assert rs.to_chamber(np.zeros((0, rs.n))).shape == (0, rs.n)


def test_nontrivial_action_leaves_chamber(rs_cache, rng):
    """w x is outside the open chamber for nontrivial w, interior x."""
    rs = rs_cache("B3")
    g = generate_group(rs)
    ident = identity_matrix(3)
    gf = [np.array([[float(c) for c in row] for row in w]) for w in g if w != ident]
    for _ in range(100):
        x = np.sort(rng.uniform(0.2, 1.0, size=3))[::-1] * np.array([1.3, 1.0, 0.7])
        x = rs.to_chamber(rng.normal(size=3))
        if np.min(rs.wall_distances(x)) < 1e-3:
            continue
        for w in gf:
            assert not rs.chamber_contains(w @ x, tol=-1e-9)


def test_b2_strata_enumeration(strata_cache):
    strata = strata_cache("B2")
    dims = sorted(s.dim for s in strata)
    assert dims == [0, 1, 1, 2]


def test_b3_strata_all_wall_subsets_feasible(strata_cache):
    strata = strata_cache("B3")
    assert len(strata) == 8  # every subset of 3 walls cuts a nonempty face
    by_dim = {}
    for s in strata:
        by_dim.setdefault(s.dim, 0)
        by_dim[s.dim] += 1
    assert by_dim == {3: 1, 2: 3, 1: 3, 0: 1}


def test_a_family_has_no_zero_stratum(strata_cache):
    strata = strata_cache("A3")
    assert min(s.dim for s in strata) == 1  # the fixed diagonal line


def test_b2_isotropy_examples(rs_cache, strata_cache):
    rs = rs_cache("B2")
    strata = strata_cache("B2")
    # wall x1 = x2 has isotropy exactly {e1 - e2}
    diag = next(s for s in strata if s.dim == 1 and 0 in s.walls)
    roots = [tuple(rs.positive_f[i]) for i in diag.isotropy]
    assert roots == [(1.0, -1.0)]
    origin = next(s for s in strata if s.dim == 0)
    assert len(origin.isotropy) == 4


def test_b3_isotropy_sub_system(rs_cache, strata_cache):
    """The face x2 = x3 = 0 has the rank-2 sign-change subsystem."""
    rs = rs_cache("B3")
    strata = strata_cache("B3")
    target = None
    for s in strata:
        if s.dim == 1:
            pt = sample_stratum(s, 1, 1.0, 3, rs)[0]
            if abs(pt[1]) < 1e-9 and abs(pt[2]) < 1e-9:
                target = s
    assert target is not None
    got = {tuple(rs.positive_f[i]) for i in target.isotropy}
    assert got == {(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, -1.0), (0.0, 1.0, 1.0)}
    assert len(target.isotropy) >= rs.n - target.dim


@pytest.mark.parametrize("name", CRITERION_2_TYPES)
def test_isotropy_is_the_set_of_roots_in_the_wall_span(name, rs_cache, strata_cache):
    rs = rs_cache(name)
    for s in strata_cache(name):
        walls = rs.simple_f[list(s.walls)]
        ref = [t for t, v in enumerate(rs.positive_f)
               if np.linalg.matrix_rank(np.vstack([walls, v])) == len(s.walls)]
        assert list(s.isotropy) == ref, s.stratum_id


def _rank_q5(rows):
    """Rank of exact Q(sqrt5) rows by Gaussian elimination."""
    work, rank = [list(r) for r in rows], 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if not work[r][col].is_zero()), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col] / work[rank][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("name", ["B3", "H3", "F4"])
def test_isotropy_matches_rank_over_q_sqrt5(name, rs_cache, strata_cache):
    rs = rs_cache(name)
    for s in strata_cache(name):
        walls = [rs.simple[w] for w in s.walls]
        ref = [t for t, v in enumerate(rs.positive)
               if _rank_q5(walls + [v]) == len(walls)]
        assert list(s.isotropy) == ref, s.stratum_id


def test_isotropy_gradient_rank_equals_codimension(rs_cache, strata_cache):
    for name in ("B3", "H3", "F4"):
        rs = rs_cache(name)
        for s in strata_cache(name):
            if not s.isotropy:
                assert s.dim == rs.n or rs.ctype.family == "A"
                continue
            roots = rs.positive_f[list(s.isotropy)]
            rank = np.linalg.matrix_rank(roots, tol=1e-10)
            assert rank == rs.n - s.dim


def test_sample_stratum_margins_and_vanishing(rs_cache, strata_cache):
    rs = rs_cache("H3")
    for s in strata_cache("H3"):
        if s.dim == 0:
            pts = sample_stratum(s, 5, 1.0, 1, rs)
            assert pts.shape == (5, rs.n) and np.all(pts == 0)
            continue
        pts = sample_stratum(s, 30, 2.0, 11, rs)
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.0 + 1e-12)
        for x in pts:
            nx = np.linalg.norm(x)
            for i in s.isotropy:
                assert abs(rs.positive_f[i] @ x) <= 1e-12 * max(nx, 1.0)
            others = [i for i in range(len(rs.simple_f)) if i not in s.walls]
            if others:
                assert np.min(rs.simple_unit_f[others] @ x) > 0


def test_sample_stratum_dim0_face_validates_and_gives_count_rows(rs_cache, strata_cache):
    rs = rs_cache("B3")
    origin = next(s for s in strata_cache("B3") if s.dim == 0)
    assert sample_stratum(origin, 7, 1.0, 3, rs).shape == (7, 3)
    for count, radius in ((0, 1.0), (3, 0.0), (3, -1.0)):
        with pytest.raises(UsageError):
            sample_stratum(origin, count, radius, 3, rs)


def test_sample_stratum_deterministic(rs_cache, strata_cache):
    rs = rs_cache("B3")
    s = next(t for t in strata_cache("B3") if t.dim == 2)
    a = sample_stratum(s, 20, 1.5, 77, rs)
    b = sample_stratum(s, 20, 1.5, 77, rs)
    assert a.tobytes() == b.tobytes()


def test_sample_stratum_gives_up_naming_the_face(rs_cache, strata_cache, monkeypatch):
    """Unit wall forms are at most 1, so a margin of 2 admits no direction."""
    rs = rs_cache("B3")
    s = next(t for t in strata_cache("B3") if t.dim == 2)
    monkeypatch.setattr(coxeter, "STRATUM_MARGIN", 2.0)
    with pytest.raises(CapabilityError, match=s.stratum_id):
        sample_stratum(s, 4, 1.0, 3, rs)


_PROPERTY_TYPES = ["A3", "B2", "B3", "D4", "D6", "G2", "I2:5", "H3", "F4", "H4"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(_PROPERTY_TYPES),
       seed=st.integers(0, 2**32 - 1), count=st.integers(1, 60),
       radius=st.floats(1e-3, 1e3), margin=st.sampled_from([0.0, 0.01, 0.02]))
def test_sample_stratum_properties(data, name, seed, count, radius, margin,
                                   rs_cache, strata_cache):
    rs = rs_cache(name)
    s = data.draw(st.sampled_from([t for t in strata_cache(name) if t.dim > 0]))
    with mock.patch.object(coxeter, "STRATUM_MARGIN", margin):
        X = sample_stratum(s, count, radius, seed, rs)
        assert X.tobytes() == sample_stratum(s, count, radius, seed, rs).tobytes()
    assert X.shape == (count, rs.n)
    nx = np.linalg.norm(X, axis=1)
    # rounding slack of a few ulps on the norm and on each form
    assert np.all(nx >= radius * 0.15 ** (1.0 / s.dim) * (1 - 1e-12))
    assert np.all(nx <= radius * (1 + 1e-12))
    if s.isotropy:
        iso = np.abs(X @ rs.positive_f[list(s.isotropy)].T).max(axis=1)
        assert np.all(iso <= 1e-12 * nx)
    others = [i for i in range(len(rs.simple_f)) if i not in s.walls]
    if others:
        forms = (X @ rs.simple_unit_f[others].T).min(axis=1)
        assert np.all(forms >= margin * nx - 1e-12 * nx)


def _sample_stratum_reference(s, count, radius, seed, rs):
    """The sampler as a per-point loop, one sample after another: the law
    (attempts, jitter schedule, margin test, radius) the batched rounds keep."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    others = [i for i in range(len(rs.simple_f)) if i not in s.walls]
    a_others = rs.simple_unit_f[others] if others else np.zeros((0, rs.n))
    out = np.empty((count, rs.n))
    for idx in range(count):
        jitter = 0.45
        for _attempt in range(60):
            g = rng.normal(size=s.dim)
            x = s.anchor + jitter * (s.basis @ g)
            nx = np.linalg.norm(x)
            if nx < 1e-12:
                continue
            x = x / nx
            if others and np.min(a_others @ x) < STRATUM_MARGIN:
                jitter *= 0.7
                continue
            r = radius * float(rng.uniform(0.15, 1.0) ** (1.0 / s.dim))
            out[idx] = x * r
            break
        else:
            raise AssertionError("reference sampler gave up")
    return out


def _replay_rounds(s, count, radius, seed, rs):
    """The batched rounds rebuilt from one pre-drawn normal stream, with the
    bookkeeping done sample by sample: round r takes the next len(pending)
    draws in sample order, and the radii are the uniforms that follow the
    last draw taken.  Returns (points, the round that placed each sample)."""
    stream = np.random.Generator(np.random.Philox(key=seed)).normal(
        size=(60 * count, s.dim))
    others = [i for i in range(len(rs.simple_f)) if i not in s.walls]
    a_others = rs.simple_unit_f[others]
    jitter = [0.45] * count
    unit, placed = np.empty((count, rs.n)), np.zeros(count, dtype=int)
    pending, used, rounds = list(range(count)), 0, 0
    while pending:
        rounds += 1
        assert rounds <= 60, "replay gave up"
        Z = stream[used:used + len(pending)]
        used += len(pending)
        # the candidates' arithmetic is the sampler's own, on the same block
        X = s.anchor + (np.array([jitter[i] for i in pending])[:, None] * Z) @ s.basis.T
        nx = np.sqrt(np.einsum("ij,ij->i", X, X))
        X /= np.where(nx >= 1e-12, nx, 1.0)[:, None]
        low = (X @ a_others.T).min(axis=1, initial=np.inf) < STRATUM_MARGIN
        still = []
        for row, i in enumerate(pending):
            if nx[row] < 1e-12:
                still.append(i)
            elif low[row]:
                jitter[i] *= 0.7
                still.append(i)
            else:
                unit[i], placed[i] = X[row], rounds
        pending = still
    rng = np.random.Generator(np.random.Philox(key=seed))
    rng.normal(size=(used, s.dim))
    r = radius * rng.uniform(0.15, 1.0, size=count) ** (1.0 / s.dim)
    return unit * r[:, None], placed


@pytest.mark.parametrize("name", ["B2", "D6", "F4", "H4"])
def test_sample_stratum_replays_batched_rounds(name, rs_cache, strata_cache):
    """Bit for bit on every face, the rejection path included (D6 and H4
    faces reject about two attempts in three)."""
    rs = rs_cache(name)
    most_rounds = 0
    for s in strata_cache(name):
        if s.dim == 0:
            continue
        for seed in (3, 29):
            for count in (1, 5, 100):
                want, placed = _replay_rounds(s, count, 1.7, seed, rs)
                most_rounds = max(most_rounds, placed.max())
                assert np.array_equal(sample_stratum(s, count, 1.7, seed, rs), want), (
                    s.stratum_id, seed, count)
    assert most_rounds > 1


def _least_squares_anchor(rs, s):
    """The reference anchor: the normalized least-squares point of the face's
    span where every non-wall simple form equals 1, or the first frame
    column on the A family's diagonal line."""
    others = [i for i in range(len(rs.simple_f)) if i not in s.walls]
    if not others:
        return s.basis[:, 0] / np.linalg.norm(s.basis[:, 0])
    y = np.linalg.lstsq(rs.simple_f[others] @ s.basis, np.ones(len(others)), rcond=None)[0]
    return s.basis @ y / np.linalg.norm(s.basis @ y)


@pytest.mark.parametrize("name", ["A4", "B3", "H3", "D6", "F4", "H4"])
def test_sample_stratum_replays_the_least_squares_anchor(name, rs_cache, strata_cache):
    """The coweight anchor Omega_F 1 is the least-squares anchor up to
    rounding: on every face, the sampler accepts the same candidates in the
    same rounds and moves no point by more than 1e-12."""
    rs = rs_cache(name)
    for s in strata_cache(name):
        if s.dim == 0:
            continue
        old = replace(s, anchor=_least_squares_anchor(rs, s))
        assert np.abs(old.anchor - s.anchor).max() <= 1e-14, s.stratum_id
        for seed in (1, 2, 3):
            want, want_placed = _replay_rounds(old, 100, 1.0, seed, rs)
            got, got_placed = _replay_rounds(s, 100, 1.0, seed, rs)
            assert np.array_equal(got_placed, want_placed), (s.stratum_id, seed)
            assert np.abs(got - want).max() <= 1e-12, (s.stratum_id, seed)
            assert np.array_equal(sample_stratum(s, 100, 1.0, seed, rs), got)


@pytest.mark.parametrize("name", ["B2", "D6", "F4", "H4"])
def test_sample_stratum_law_matches_reference_loop(name, rs_cache, strata_cache):
    """Same law as the per-point loop: two-sample KS tests of |x| and of the
    smallest unit wall form over |x|, on every face, at fixed seeds."""
    rs = rs_cache(name)
    pvalues = []
    for s in strata_cache(name):
        if s.dim == 0:
            continue
        a_others = rs.simple_unit_f[[i for i in range(len(rs.simple_f)) if i not in s.walls]]

        def stats(X):
            nx = np.linalg.norm(X, axis=1)
            return nx, (X @ a_others.T).min(axis=1) / nx

        ref = stats(_sample_stratum_reference(s, 2000, 1.0, 101, rs))
        new = stats(sample_stratum(s, 2000, 1.0, 202, rs))
        for a, b in zip(ref, new):
            pvalues.append((ks_2samp(a, b, method="asymp").pvalue, s.stratum_id))
    assert min(pvalues)[0] > 1e-4, min(pvalues)


def test_stratum_of_point(rs_cache, strata_cache):
    rs = rs_cache("B2")
    strata = strata_cache("B2")
    s = stratum_of_point(rs, strata, np.array([1.0, 1.0]))
    assert s is not None and s.dim == 1
    s = stratum_of_point(rs, strata, np.array([2.0, 1.0]))
    assert s is not None and s.dim == 2

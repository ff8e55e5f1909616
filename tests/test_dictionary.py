"""Dictionary-builder tests.

Cardinalities are pinned against the closed-form counts, line bases
against their closed-form eigenvectors (deltas and characters), and the
split-torus systems against the explicit character vectors they must
reproduce at the identity representative.
"""

import numpy as np
import pytest

from oscdict import dictionary
from oscdict.dictionary import (Dictionary, expected_size,
                                extended_dictionary, heisenberg_dictionary,
                                nonsplit_oscillator, oscillator_dictionary,
                                split_oscillator, unit_norm_defect,
                                _standard_basis_matrix)
from oscdict.field import FpField
from oscdict.heisenberg import HeisenbergElement, pi
from oscdict.linalg import (UNIT_NORM_TOL, phase_normalize_rows, phase_pivots,
                            phase_table)
from oscdict.weil import chirp_table, rho
from oscdict.sl2 import (_nonsplit_seeds, nonsplit_tori,
                         split_representatives, weyl_element)
from schur_oracle import eig_unitary


def scaling_op(field, a):
    """Oracle S_a: the permutation t -> a*t scaled by the sign sigma(a)."""
    p = field.p
    m = np.zeros((p, p), dtype=np.complex128)
    cols = np.arange(p)
    m[(a * cols) % p, cols] = field.legendre(a)
    return m


def test_expected_size_formulas():
    for p in (5, 7, 11, 13):
        assert expected_size("heisenberg", p) == p * (p + 1)
        assert expected_size("oscillator_split", p) == p * (p + 1) // 2 * (p - 2)
        assert expected_size("oscillator_nonsplit", p) == p * (p - 1) // 2 * p
        assert (expected_size("oscillator", p)
                == expected_size("oscillator_split", p)
                + expected_size("oscillator_nonsplit", p))
        assert expected_size("extended", p) == p * p * expected_size(
            "oscillator", p)


def test_dictionary_class_mechanics():
    p = 5
    f = FpField(p)
    d = heisenberg_dictionary(f)
    assert len(d) == 30
    assert d.n_groups == 6
    assert d.group_slice(0) == slice(0, 5)
    assert d.group_matrix(3).shape == (5, 5)
    assert (d.group_ids[7], d.member_ids[7]) == (1, 2)
    assert d.shifts[7].tolist() == [0, 0]
    assert "heisenberg" in repr(d) and "30" in repr(d)


def test_dictionary_validation():
    v = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="kind"):
        Dictionary("nope", 5, v, [0, 0, 1], [0, 1, 0])
    with pytest.raises(ValueError, match="nondecreasing"):
        Dictionary("heisenberg", 5, v, [1, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError, match="out of step"):
        Dictionary("heisenberg", 5, v, [0, 0], [0, 1])


def test_orbits_must_match_the_group_offsets():
    # the declared orbits are checked against the group offsets alone: one
    # size per orbit of p equally large groups from atom 0, in C^p
    d = heisenberg_dictionary(FpField(5))
    args = (d.kind, 5, d.vectors, d.group_ids, d.member_ids)
    assert np.array_equal(d.orbits, [5])
    assert np.array_equal(Dictionary(*args, orbits=[5]).orbits, d.orbits)
    moved = d.group_ids.copy()
    moved[4] = 1  # groups of 4 and 6 atoms: no orbit of groups of 5
    for orbits, gids, vectors in (
            ([4], d.group_ids, d.vectors), ([5, 5], d.group_ids, d.vectors),
            ([0], d.group_ids, d.vectors), ([-5], d.group_ids, d.vectors),
            ([5], moved, d.vectors), ([5], d.group_ids + 1, d.vectors),
            ([5], d.group_ids, np.hstack([d.vectors, d.vectors]))):
        with pytest.raises(ValueError, match="disagree with orbit layout"):
            Dictionary(d.kind, 5, vectors, gids, d.member_ids, orbits=orbits)
    assert Dictionary(*args).orbits.size == 0
    # no chirps without a field F_p
    with pytest.raises(ValueError, match="not prime"):
        Dictionary("oscillator", 9, np.eye(9), range(9), [0] * 9,
                   orbits=[1])


def line_directions(field):
    """Oracle: the generator (tau, w) of each Heisenberg group, in group
    order: the lines through (1, x), then the deltas' line (0, 1)."""
    return [(1, x) for x in range(field.p)] + [(0, 1)]


def test_line_directions():
    # every line through the origin, each once: no two generators are
    # multiples of each other
    for p in (5, 7, 11):
        f = FpField(p)
        lines = line_directions(f)
        assert len(lines) == p + 1
        slopes = {(w * f.inv(tau)) % p if tau else None for tau, w in lines}
        assert len(slopes) == p + 1
    assert line_directions(FpField(5)) == [(1, 0), (1, 1), (1, 2), (1, 3),
                                           (1, 4), (0, 1)]


def test_heisenberg_dictionary_structure():
    for p in (5, 7):
        f = FpField(p)
        d = heisenberg_dictionary(f)
        assert len(d) == p * (p + 1)
        assert d.n_groups == p + 1
        assert unit_norm_defect(d) <= UNIT_NORM_TOL
        for g in range(d.n_groups):
            B = d.group_matrix(g)
            assert np.max(np.abs(B @ B.conj().T - np.eye(p))) < 1e-12


def test_heisenberg_line_01_is_deltas():
    # the (0,1) line operator is diagonal, so its eigenbasis is the
    # standard basis, delta_m at member m; it is the last group
    p = 7
    d = heisenberg_dictionary(FpField(p))
    B = d.group_matrix(p)
    assert np.max(np.abs(B - np.eye(p))) < 1e-12


def test_heisenberg_line_10_is_characters():
    # the (1,0) line operator is the cyclic shift; eigenvectors are flat
    p = 7
    d = heisenberg_dictionary(FpField(p))
    B = d.group_matrix(0)
    assert np.max(np.abs(np.abs(B) - 1 / np.sqrt(p))) < 1e-12


def test_heisenberg_members_are_psi_eigenvectors():
    # member m of the line l0 is the psi(m)-eigenvector of pi(l0), l0 the
    # generator line_directions gives its group
    for p in (5, 7, 11, 13):
        f = FpField(p)
        d = heisenberg_dictionary(f)
        psi = phase_table(p)
        for g, (tau, w) in enumerate(line_directions(f)):
            B = d.group_matrix(g)
            lam = psi[d.member_ids[d.group_slice(g)]]
            P = pi(HeisenbergElement(tau, w, 0, f))
            assert np.max(np.abs(B @ P.T - lam[:, None] * B)) < 1e-12


def test_heisenberg_cross_line_coherence_exact():
    p = 5
    d = heisenberg_dictionary(FpField(p))
    G = np.abs(d.vectors @ d.vectors.conj().T)
    cross = d.group_ids[:, None] != d.group_ids[None, :]
    vals = G[cross]
    assert np.max(np.abs(vals - 1 / np.sqrt(p))) < 1e-9


def test_standard_basis_vectors():
    p = 5
    f = FpField(p)
    B = _standard_basis_matrix(f)
    assert B.shape == (p - 2, p)
    assert np.all(B[:, 0] == 0.0)
    assert np.allclose(B[:, 1], 1 / np.sqrt(p - 1))  # t=1 real positive
    assert np.max(np.abs(B @ B.conj().T - np.eye(p - 2))) < 1e-12


def test_standard_basis_diagonalizes_scalings():
    # each row must be an eigenvector of S_a for every a != 0
    p = 7
    f = FpField(p)
    B = _standard_basis_matrix(f)
    for a in range(1, p):
        S = scaling_op(f, a)
        for m in range(p - 2):
            v = B[m]
            w = S @ v
            lam = w[1] / v[1]
            assert abs(abs(lam) - 1.0) < 1e-12
            assert np.max(np.abs(w - lam * v)) < 1e-12


def test_split_oscillator():
    for p in (5, 7):
        f = FpField(p)
        d = split_oscillator(f)
        assert len(d) == expected_size("oscillator_split", p)
        assert d.n_groups == p * (p + 1) // 2
        assert unit_norm_defect(d) < 1e-12
        for g in range(d.n_groups):
            B = d.group_matrix(g)
            assert B.shape == (p - 2, p)
            assert np.max(np.abs(B @ B.conj().T - np.eye(p - 2))) < 1e-12


def test_split_identity_group_is_standard_basis():
    # representative 0 is the identity, whose Weil operator is exactly I,
    # so the first group must be the explicit character vectors bit-exactly
    for p in (5, 11):
        f = FpField(p)
        d = split_oscillator(f)
        assert np.array_equal(d.group_matrix(0), _standard_basis_matrix(f))


def test_split_groups_are_transported_standard_basis():
    # group g is its reference basis moved by rho of its conjugator, row by
    # row up to a phase: the standard basis by R's entries for the split
    # family, the eigenbasis of the reference generator by the descriptor
    # conjugators for the non-split one
    for p in (5, 7, 11, 13):
        f = FpField(p)
        t0 = nonsplit_tori(f)[0].generator
        cases = [
            (split_oscillator(f), _standard_basis_matrix(f),
             split_representatives(f)),
            (nonsplit_oscillator(f), eig_unitary(rho(t0)).vectors().T,
             [T.conjugator for T in nonsplit_tori(f)]),
        ]
        for d, B, conjugators in cases:
            assert d.n_groups == len(conjugators)
            for i, g in enumerate(conjugators):
                want = B @ rho(g).T
                G = np.abs(d.group_matrix(i) @ want.conj().T)
                assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-12


def test_atom_phase_pivot_is_real_positive():
    # each atom's first largest-magnitude entry (ties within 1e-9
    # relative go to the smaller index) is real and positive
    for p in (5, 7, 11):
        f = FpField(p)
        for d in (split_oscillator(f), nonsplit_oscillator(f)):
            mags = np.abs(d.vectors)
            top = mags.max(axis=1, keepdims=True)
            first = (mags >= top * (1.0 - 1e-9)).argmax(axis=1)
            pivot = d.vectors[np.arange(len(d)), first]
            assert np.max(np.abs(pivot.imag)) <= 1e-15
            assert np.all(pivot.real > 0)


def test_nonsplit_oscillator():
    for p in (5, 7):
        f = FpField(p)
        d = nonsplit_oscillator(f)
        assert len(d) == expected_size("oscillator_nonsplit", p)
        assert d.n_groups == p * (p - 1) // 2
        assert unit_norm_defect(d) < 1e-12
        for g in range(d.n_groups):
            B = d.group_matrix(g)
            assert B.shape == (p, p)
            assert np.max(np.abs(B @ B.conj().T - np.eye(p))) < 1e-10


def test_nonsplit_atoms_are_generator_eigenvectors():
    # every atom of torus T is an eigenvector of rho(T.generator)
    for p in (5, 7, 11, 13):
        f = FpField(p)
        d = nonsplit_oscillator(f)
        for g, T in enumerate(nonsplit_tori(f)):
            B = d.group_matrix(g)
            W = B @ rho(T.generator).T
            lam = np.sum(W * B.conj(), axis=1)
            assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-10
            assert np.max(np.abs(W - lam[:, None] * B)) < 1e-10


@pytest.mark.parametrize("p", [5, 7, 11, 13, 19, 61, 127])
def test_nonsplit_reference_matches_schur_oracle(p):
    # the character-projector basis of rho(t0) against the Schur oracle:
    # the same lines in the same order, and no less orthonormal
    f = FpField(p)
    t0, _ = _nonsplit_seeds(f)
    B, _ = dictionary._nonsplit_family(f)
    dec = eig_unitary(rho(t0))
    O = dec.vectors().T
    assert dec.multiplicities == [1] * p
    assert np.max(np.abs(B - O)) <= 1e-13
    # the p eigenvalues are distinct lines mu zeta^j of the p+1 the cyclic
    # torus has, mu^(p+1) their common (p+1)-th power: exactly one is absent
    lam = dec.eigenvalues ** (p + 1)
    assert np.max(np.abs(lam - lam[0])) < 1e-12
    mu = np.exp(1j * np.angle(lam[0]) / (p + 1))
    j = np.angle(dec.eigenvalues / mu) * (p + 1) / (2 * np.pi)
    assert np.max(np.abs(j - np.round(j))) < 1e-9
    assert len(set(np.round(j).astype(int) % (p + 1))) == p
    # the projection of delta_s onto line j has norm |O[j, s]|, so the
    # weakest kept projection from delta_0..delta_3 is clear of the refusal
    assert np.abs(O[:, :4]).max(axis=1).min() > dictionary._LINE_TOL

    def defect(M):
        return np.max(np.abs(M @ M.conj().T - np.eye(p)))

    assert defect(B) <= 10 * defect(O)


def test_nonsplit_build_refuses_without_p_simple_lines(monkeypatch):
    p = 7
    f = FpField(p)
    zeta = np.exp(2j * np.pi * np.arange(p + 1) / (p + 1))
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p)))

    def build(op):
        monkeypatch.setattr(dictionary, "rho", lambda g: op)
        return dictionary._nonsplit_family(f)[0]

    # control: a generic unitary with p distinct lines builds its
    # eigenvectors, the columns of q, in eigen-angle order
    B = build(q @ np.diag(zeta[1:]) @ q.conj().T)
    assert np.max(np.abs(B @ B.conj().T - np.eye(p))) < 1e-13
    assert np.max(np.abs(np.abs(B @ q.conj()) ** 2 - np.eye(p))) < 1e-13
    # its (p+1)-th power is not scalar
    with pytest.raises(ValueError, match="not scalar"):
        build(q @ np.diag(np.exp(1j * np.arange(p))) @ q.conj().T)
    # a double eigenvalue: two lines are absent
    with pytest.raises(ValueError, match="2 of 8 character lines"):
        build(q @ np.diag(zeta[[0, 0, 1, 2, 3, 4, 5]]) @ q.conj().T)
    # no line absent: on C^p one always is, so the cyclic shift of C^(p+1),
    # whose spectrum is all p+1 lines, stands in
    with pytest.raises(ValueError, match="0 of 8 character lines"):
        build(np.roll(np.eye(p + 1, dtype=complex), 1, axis=0))


def _concatenated_union(field):
    """Oracle: the union assembled from its two families, stacked."""
    ds, dn = split_oscillator(field), nonsplit_oscillator(field)
    return Dictionary(
        "oscillator", field.p, np.vstack([ds.vectors, dn.vectors]),
        np.concatenate([ds.group_ids, dn.group_ids + ds.n_groups]),
        np.concatenate([ds.member_ids, dn.member_ids]))


def _concatenated_extended(base):
    """Oracle: the p^2 translates built block by block, then stacked;
    pi(tau, w, 0) is written out here rather than taken from the package."""
    p = base.prime
    f = FpField(p)
    psi = phase_table(p)
    t = np.arange(p)
    blocks, gids, mids, shifts = [], [], [], []
    for tau in range(p):
        cols = (t + tau) % p
        for w in range(p):
            if tau == 0 and w == 0:
                blocks.append(base.vectors)
            else:
                phases = psi[(-f.half() * tau * w + w * cols) % p]
                blocks.append(phase_normalize_rows(
                    base.vectors[:, cols] * phases[None, :]))
            gids.append(base.group_ids + (tau * p + w) * base.n_groups)
            mids.append(base.member_ids)
            shifts.append(np.tile([tau, w], (len(base), 1)))
    return Dictionary("extended", p, np.vstack(blocks),
                      np.concatenate(gids), np.concatenate(mids),
                      np.vstack(shifts))


def _assert_bit_identical(got, want):
    assert got.kind == want.kind and got.prime == want.prime
    for name in ("vectors", "group_ids", "member_ids", "shifts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_oscillator_union():
    p = 5
    f = FpField(p)
    d = oscillator_dictionary(f)
    ds = split_oscillator(f)
    dn = nonsplit_oscillator(f)
    assert len(d) == len(ds) + len(dn)
    assert d.n_groups == p * p
    assert np.array_equal(d.vectors[:len(ds)], ds.vectors)
    assert np.array_equal(d.vectors[len(ds):], dn.vectors)
    assert d.group_ids[len(ds)] == ds.n_groups
    # the one-array build equals the stacked families bit for bit
    for p in (5, 7, 11):
        f = FpField(p)
        _assert_bit_identical(oscillator_dictionary(f),
                              _concatenated_union(f))


def test_extended_dictionary(monkeypatch):
    p = 5
    f = FpField(p)
    base = split_oscillator(f)
    ext = extended_dictionary(base)
    assert ext.kind == "extended"
    assert len(ext) == p * p * len(base)
    assert ext.n_groups == p * p * base.n_groups
    assert unit_norm_defect(ext) < 1e-12
    # the (0,0) shift block is the base dictionary, bit for bit
    assert np.array_equal(ext.vectors[:len(base)], base.vectors)
    assert np.array_equal(ext.shifts[:len(base)],
                          np.zeros((len(base), 2), dtype=np.int64))
    # shift provenance and group refinement
    i = 3 * p * len(base) + 2 * len(base) + 7  # shift (3, 2), base atom 7
    assert ext.shifts[i].tolist() == [3, 2]
    assert ext.member_ids[i] == base.member_ids[7]
    assert (ext.group_ids[i]
            == base.group_ids[7] + (3 * p + 2) * base.n_groups)
    # every translated group stays orthonormal
    rng = np.random.default_rng(0)
    for g in rng.integers(0, ext.n_groups, size=10):
        B = ext.group_matrix(int(g))
        assert np.max(np.abs(B @ B.conj().T - np.eye(len(B)))) < 1e-12
    # the in-place build equals the stacked translates bit for bit, over
    # each oscillator base and the union at the benchmark's p=13; every one
    # of these bases passes the pivot guard, so no slice takes phase_pivots
    bases = [build(FpField(p)) for p in (5, 7, 11)
             for build in (split_oscillator, nonsplit_oscillator,
                           oscillator_dictionary)]
    bases.append(oscillator_dictionary(FpField(13)))
    calls = _count_phase_pivots(monkeypatch)
    for base in bases:
        _assert_bit_identical(extended_dictionary(base),
                              _concatenated_extended(base))
    assert calls == []


def _count_phase_pivots(monkeypatch):
    """Record every phase_pivots call the builders make from now on."""
    calls = []

    def counted(M):
        calls.append(M.shape)
        return phase_pivots(M)
    monkeypatch.setattr(dictionary, "phase_pivots", counted)
    return calls


def test_extended_near_tie_takes_per_slice_pivots(monkeypatch):
    # a hand-made base whose row 0 has a second magnitude on its tie
    # threshold (within the 1e-12 guard margin): the rounding of a shift's
    # phases moves it in and out of the tie set, so the base's tie set
    # does not give every slice's pivot and the build must fall back
    p = 5
    f = FpField(p)
    vectors = split_oscillator(f).vectors.copy()
    vectors[0] = (np.array([0.3, 1.0, 0.5, 1.0 - 1e-9, 0.2])
                  * np.exp(1j * np.arange(p)))
    base = Dictionary("oscillator_split", p, vectors,
                      np.arange(len(vectors)) // (p - 2),
                      np.arange(len(vectors)) % (p - 2))
    t = np.arange(p)
    mags = np.abs(vectors[0])
    ties = mags >= mags.max() * (1.0 - 1e-9)
    psi = phase_table(p)
    moved = [(tau, w) for tau in range(p) for w in range(p)
             if phase_pivots(vectors[0][(t + tau) % p][None]
                             * psi[(-f.half() * tau * w + w * (t + tau)) % p])
             != ties[(t + tau) % p].argmax()]
    assert moved  # the rotated tie set would pick a wrong pivot here
    calls = _count_phase_pivots(monkeypatch)
    _assert_bit_identical(extended_dictionary(base),
                          _concatenated_extended(base))
    assert calls == [(len(base), p)] * (p * p - 1)  # every slice but the base


def test_extended_orbit_is_injective():
    # the p^2 translates of one atom are pairwise non-collinear
    p = 5
    f = FpField(p)
    base = split_oscillator(f)
    ext = extended_dictionary(base)
    orbit = ext.vectors[0::len(base)]  # translates of base atom 0
    assert orbit.shape == (p * p, p)
    G = np.abs(orbit @ orbit.conj().T)
    np.fill_diagonal(G, 0.0)
    assert G.max() < 0.999


def test_extended_rejects_non_oscillator():
    f = FpField(5)
    with pytest.raises(ValueError, match="extend"):
        extended_dictionary(heisenberg_dictionary(f))
    ext = extended_dictionary(split_oscillator(f))
    with pytest.raises(ValueError, match="extend"):
        extended_dictionary(ext)


def test_builds_are_bit_reproducible():
    f = FpField(7)
    for build in (heisenberg_dictionary, split_oscillator,
                  nonsplit_oscillator):
        a, b = build(f), build(f)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.group_ids, b.group_ids)
        assert np.array_equal(a.member_ids, b.member_ids)


def one_character_at_a_time(field):
    """Oracle of the split reference: the character vectors, one row
    per exponent j = 1..p-2, as a loop."""
    p = field.p
    dlog = np.array(field.dlog_table())
    zeta = np.exp(2j * np.pi * np.arange(p - 1) / (p - 1))
    B = np.zeros((p - 2, p), dtype=np.complex128)
    for j in range(1, p - 1):
        B[j - 1, 1:] = zeta[(j * dlog[1:]) % (p - 1)] / np.sqrt(p - 1)
    return B


def one_seed_at_a_time(field, families, tail):
    """Oracle of the builders: each (reference, seeds) family moved one
    seed at a time, phase_normalize_rows(reference @ rho(g).T), each
    spread by its own chirp_orbit call, then the tail rows."""
    p = field.p
    rows = []
    for reference, seeds in families:
        for g in seeds:
            block = np.empty((p, len(reference), p), dtype=np.complex128)
            dictionary.chirp_orbit(phase_normalize_rows(reference @ rho(g).T),
                                   chirp_table(field), block)
            rows.append(block.reshape(-1, p))
    return np.concatenate(rows + [np.reshape(tail, (-1, p))])


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 31])
def test_builds_equal_one_seed_at_a_time_oracle(p):
    # the closed-form split seeds are R's entries b*p, and every builder's
    # atoms are the oracle's bit for bit, seeds moved in stacks or one at
    # a time (t0 is checked against the SL_2 order search in test_sl2)
    f = FpField(p)
    seeds = split_representatives(f)[::p]
    assert dictionary._split_family(f)[1] == seeds
    split = (one_character_at_a_time(f), seeds)
    nonsplit = (dictionary._nonsplit_family(f)[0],
                [T.conjugator for T in nonsplit_tori(f)[::p]])
    cases = [
        (heisenberg_dictionary, [(np.eye(p), [weyl_element(f)])], np.eye(p)),
        (split_oscillator, [split], ()),
        (nonsplit_oscillator, [nonsplit], ()),
        (oscillator_dictionary, [split, nonsplit], ()),
    ]
    for build, families, tail in cases:
        got = build(f).vectors
        want = one_seed_at_a_time(f, families, tail)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), build.__name__

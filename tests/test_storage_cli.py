"""On-disk format and command-line tests.

All CLI invocations go through main(argv) in-process, so exit codes and
printed output are asserted directly; bundles live in pytest tmp dirs.
"""

import hashlib
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from oscdict import storage
from oscdict.cli import main
from oscdict.dictionary import (BUILDERS, KINDS, Dictionary,
                                extended_dictionary, heisenberg_dictionary,
                                split_oscillator)
from oscdict.field import FpField
from oscdict.sparse import RecoveryError
from oscdict.storage import (ATOMS_NAME, MAX_BUNDLE_BYTES,
                             CorruptDictionaryError, MANIFEST_NAME,
                             load_dictionary, load_signal, save_dictionary,
                             save_signal)
from test_analysis import _damaged_union, _union_with_tail
from test_sparse import _old_layout_heisenberg


# ---------------------------------------------------------------------------
# storage layer
# ---------------------------------------------------------------------------

def test_dictionary_roundtrip_bit_exact(tmp_path):
    d = heisenberg_dictionary(FpField(5))
    save_dictionary(d, str(tmp_path / "bundle"))
    back = load_dictionary(str(tmp_path / "bundle"))
    assert back.kind == d.kind and back.prime == d.prime
    assert np.array_equal(back.vectors, d.vectors)
    assert np.array_equal(back.group_ids, d.group_ids)
    assert np.array_equal(back.member_ids, d.member_ids)
    assert np.array_equal(back.shifts, d.shifts)


def test_extended_roundtrip_keeps_shifts(tmp_path):
    ext = extended_dictionary(split_oscillator(FpField(5)))
    save_dictionary(ext, str(tmp_path / "ext"))
    back = load_dictionary(str(tmp_path / "ext"))
    assert np.array_equal(back.vectors, ext.vectors)
    assert np.array_equal(back.shifts, ext.shifts)
    assert back.n_groups == ext.n_groups


def test_manifest_contents(tmp_path):
    d = heisenberg_dictionary(FpField(7))
    manifest = save_dictionary(d, str(tmp_path / "b"))
    on_disk = json.loads((tmp_path / "b" / MANIFEST_NAME).read_text())
    assert on_disk == manifest
    assert manifest["format_version"] == 3
    assert manifest["phase_convention"] == 4
    assert manifest["prime"] == 7
    assert manifest["kind"] == "heisenberg"
    assert manifest["atom_count"] == 56
    assert manifest["group_count"] == 8
    assert manifest["generator"] == FpField(7).mult_generator()
    assert "created" in manifest
    blob = (tmp_path / "b" / ATOMS_NAME).read_bytes()
    assert manifest["blob_sha256"] == hashlib.sha256(blob).hexdigest()
    assert sorted(os.listdir(tmp_path / "b")) == [ATOMS_NAME, MANIFEST_NAME]


def test_atoms_bin_layout(tmp_path):
    # header, layout (kind, no orbit, tail from atom 0), every atom as a
    # tail row, group ids, member ids, shifts: all little-endian
    d = extended_dictionary(split_oscillator(FpField(5)))
    save_dictionary(d, str(tmp_path / "b"))
    blob = (tmp_path / "b" / ATOMS_NAME).read_bytes()
    n, p = len(d), d.prime
    assert len(blob) == 72 + n * (16 * p + 32)
    assert blob[:8] == b"OSCDICT\x00"
    assert np.array_equal(np.frombuffer(blob[8:32], "<u4", 2), [3, 1])
    assert np.array_equal(np.frombuffer(blob[16:32], "<u8"), [n, p])
    assert blob[32:56] == b"extended".ljust(24, b"\x00")
    assert np.array_equal(np.frombuffer(blob[56:72], "<u8"), [0, 0])
    atoms = np.frombuffer(blob, "<c16", n * p, 72).reshape(n, p)
    ids = np.frombuffer(blob, "<i8", 4 * n, 72 + 16 * n * p)
    assert np.array_equal(atoms, d.vectors)
    assert np.array_equal(ids[:n], d.group_ids)
    assert np.array_equal(ids[n:2 * n], d.member_ids)
    assert np.array_equal(ids[2 * n:].reshape(n, 2), d.shifts)
    back = load_dictionary(str(tmp_path / "b"))
    assert back.vectors.flags.writeable and back.group_ids.flags.writeable


def test_seed_bundle_layout(tmp_path):
    # Heisenberg p=7: one orbit of 7 groups of 7, its seed rows (group 0),
    # then the deltas as tail rows, then the provenance
    d = heisenberg_dictionary(FpField(7))
    save_dictionary(d, str(tmp_path / "b"))
    blob = (tmp_path / "b" / ATOMS_NAME).read_bytes()
    n, p = 56, 7
    assert len(blob) == _GROUPS7 + 32 * n
    assert np.array_equal(np.frombuffer(blob[8:32], "<u4", 2), [3, 1])
    assert np.array_equal(np.frombuffer(blob[16:32], "<u8"), [n, p])
    assert blob[32:56] == b"heisenberg".ljust(24, b"\x00")
    assert np.array_equal(np.frombuffer(blob[56:80], "<u8"), [1, 49, 7])
    rows = np.frombuffer(blob, "<c16", 14 * p, 80).reshape(14, p)
    assert np.array_equal(rows[:7].view(np.uint64),
                          d.vectors[:7].view(np.uint64))
    assert np.array_equal(rows[7:].view(np.uint64),
                          d.vectors[49:].view(np.uint64))
    ids = np.frombuffer(blob, "<i8", 4 * n, _GROUPS7)
    assert np.array_equal(ids[:n], d.group_ids)
    assert np.array_equal(ids[n:2 * n], d.member_ids)


def _bit_equal(a, b):
    return (a.kind == b.kind and a.prime == b.prime
            and a.vectors.shape == b.vectors.shape
            and np.array_equal(a.vectors.view(np.uint64),
                               b.vectors.view(np.uint64))
            and np.array_equal(a.group_ids, b.group_ids)
            and np.array_equal(a.member_ids, b.member_ids)
            and np.array_equal(a.shifts, b.shifts))


def _closed_form_blob_size(kind, p):
    """atoms.bin bytes from the orbit layout each builder produces: the
    72-byte header and layout, 8 bytes per orbit, 16p per stored row
    (seed or tail) and 32 per atom of provenance."""
    split = ((p + 1) // 2, (p + 1) * (p - 2) // 2)  # orbits, seed rows
    nonsplit = ((p - 1) // 2, (p - 1) * p // 2)
    union_atoms = p * (split[1] + nonsplit[1])
    orbits, rows, n = {
        "heisenberg": (1, 2 * p, p * (p + 1)),  # the deltas are the tail
        "oscillator_split": (*split, p * split[1]),
        "oscillator_nonsplit": (*nonsplit, p * nonsplit[1]),
        "oscillator": (p, split[1] + nonsplit[1], union_atoms),
        # no orbits: every row is tail
        "extended": (0, p * p * union_atoms, p * p * union_atoms),
    }[kind]
    return 72 + 8 * orbits + 16 * p * rows + 32 * n


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("kind", KINDS)
def test_every_builder_reloads_bit_equal(tmp_path, kind, p):
    d = BUILDERS[kind](FpField(p))
    save_dictionary(d, str(tmp_path / "b"))
    assert os.path.getsize(tmp_path / "b" / ATOMS_NAME) \
        == _closed_form_blob_size(kind, p)
    assert _bit_equal(load_dictionary(str(tmp_path / "b")), d)


def test_non_orbit_layouts_reload_through_the_tail(tmp_path):
    # a damaged orbit, the old Heisenberg group order and the extended
    # family fail the bitwise regeneration and are stored as tail rows
    # alone; the union with a random unitary tail keeps its seed rows
    f = FpField(7)
    p = f.p

    def all_tail(d):
        return 72 + len(d) * (16 * d.prime + 32)

    with_tail = _union_with_tail(f)
    for d, size in ((_damaged_union(f), None),
                    (_old_layout_heisenberg(f), None),
                    (extended_dictionary(split_oscillator(FpField(5))), None),
                    (with_tail, _closed_form_blob_size("oscillator", p)
                     + p * (16 * p + 32))):
        save_dictionary(d, str(tmp_path / "b"))
        assert os.path.getsize(tmp_path / "b" / ATOMS_NAME) \
            == (size or all_tail(d))
        assert _bit_equal(load_dictionary(str(tmp_path / "b")), d)


def test_save_memory_is_one_orbit(tmp_path):
    # split p=37 holds 14.6 MB of atoms; the save checks them one orbit
    # (0.77 MB) at a time and writes the arrays without copies
    d = split_oscillator(FpField(37))
    assert d.vectors.nbytes > 14_000_000
    save_dictionary(d, str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        save_dictionary(d, str(tmp_path / "b"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak
    assert _bit_equal(load_dictionary(str(tmp_path / "b")), d)


def test_load_holds_no_second_copy(tmp_path):
    # the load reads the file into the arrays it returns, the seed rows
    # into the provenance array, so it peaks near the dictionary itself
    d = split_oscillator(FpField(37))
    save_dictionary(d, str(tmp_path / "b"))
    load_dictionary(str(tmp_path / "b"))  # the chirp table is cached
    tracemalloc.start()
    try:
        back = load_dictionary(str(tmp_path / "b"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bit_equal(back, d)
    own = back.vectors.nbytes + 32 * len(back)
    assert own <= peak <= own + 256_000, (own, peak)


def test_save_refuses_what_load_refuses(tmp_path, monkeypatch):
    d = heisenberg_dictionary(FpField(5))
    monkeypatch.setattr(storage, "MAX_BUNDLE_BYTES", len(d) * 112 - 1)
    with pytest.raises(ValueError, match="exceed"):
        save_dictionary(d, str(tmp_path / "b"))
    assert not (tmp_path / "b").exists()


def test_save_is_deterministic_modulo_timestamp(tmp_path):
    d = heisenberg_dictionary(FpField(7))
    save_dictionary(d, str(tmp_path / "one"))
    save_dictionary(d, str(tmp_path / "two"))
    assert (tmp_path / "one" / ATOMS_NAME).read_bytes() \
        == (tmp_path / "two" / ATOMS_NAME).read_bytes()
    m1 = json.loads((tmp_path / "one" / MANIFEST_NAME).read_text())
    m2 = json.loads((tmp_path / "two" / MANIFEST_NAME).read_text())
    m1.pop("created"), m2.pop("created")
    assert m1 == m2


def _resign(bundle):
    """Make the manifest digest match atoms.bin again after an edit."""
    m = json.loads((bundle / MANIFEST_NAME).read_text())
    m["blob_sha256"] = hashlib.sha256(
        (bundle / ATOMS_NAME).read_bytes()).hexdigest()
    (bundle / MANIFEST_NAME).write_text(json.dumps(m))


def _truncate(bundle, nbytes):
    blob = (bundle / ATOMS_NAME).read_bytes()
    (bundle / ATOMS_NAME).write_bytes(blob[:-nbytes])


def corrupt_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def test_load_detects_flipped_byte(tmp_path):
    d = heisenberg_dictionary(FpField(5))
    save_dictionary(d, str(tmp_path / "b"))
    corrupt_byte(tmp_path / "b" / ATOMS_NAME, 100)
    with pytest.raises(CorruptDictionaryError, match="digest"):
        load_dictionary(str(tmp_path / "b"))


def test_load_detects_truncation(tmp_path):
    d = heisenberg_dictionary(FpField(5))
    save_dictionary(d, str(tmp_path / "b"))
    blob = (tmp_path / "b" / ATOMS_NAME).read_bytes()
    (tmp_path / "b" / ATOMS_NAME).write_bytes(blob[:-16])
    with pytest.raises(CorruptDictionaryError):
        load_dictionary(str(tmp_path / "b"))


def test_load_detects_bad_magic(tmp_path):
    d = heisenberg_dictionary(FpField(5))
    save_dictionary(d, str(tmp_path / "b"))
    blob = bytearray((tmp_path / "b" / ATOMS_NAME).read_bytes())
    blob[0:8] = b"NOTADICT"
    (tmp_path / "b" / ATOMS_NAME).write_bytes(bytes(blob))
    # keep the manifest digest consistent so the magic check is reached
    _resign(tmp_path / "b")
    with pytest.raises(CorruptDictionaryError, match="magic"):
        load_dictionary(str(tmp_path / "b"))


def test_load_detects_broken_manifest_and_provenance(tmp_path):
    d = heisenberg_dictionary(FpField(5))
    save_dictionary(d, str(tmp_path / "b"))
    _truncate(tmp_path / "b", 8)
    _resign(tmp_path / "b")
    with pytest.raises(CorruptDictionaryError, match="file length"):
        load_dictionary(str(tmp_path / "b"))
    (tmp_path / "b" / MANIFEST_NAME).write_text("{ not json")
    with pytest.raises(CorruptDictionaryError, match="JSON"):
        load_dictionary(str(tmp_path / "b"))


def test_signal_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    f = rng.normal(size=11) + 1j * rng.normal(size=11)
    save_signal(str(tmp_path / "sig.bin"), f)
    back = load_signal(str(tmp_path / "sig.bin"))
    assert np.array_equal(back, f)


def test_signal_rejects_dictionary_payload(tmp_path):
    d = heisenberg_dictionary(FpField(5))
    save_dictionary(d, str(tmp_path / "b"))
    with pytest.raises(CorruptDictionaryError, match="payload"):
        load_signal(str(tmp_path / "b" / ATOMS_NAME))
    (tmp_path / "short.bin").write_bytes(b"xy")
    with pytest.raises(CorruptDictionaryError, match="header"):
        load_signal(str(tmp_path / "short.bin"))
    # a header that counts no signal, with a matching (empty) body
    save_signal(str(tmp_path / "sig.bin"), np.ones(3))
    blob = bytearray((tmp_path / "sig.bin").read_bytes())
    blob[16:24] = (0).to_bytes(8, "little")
    (tmp_path / "empty.bin").write_bytes(bytes(blob[:32]))
    with pytest.raises(CorruptDictionaryError, match="0 signals"):
        load_signal(str(tmp_path / "empty.bin"))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1 \
        and "Traceback" not in err


def test_build_and_coherence_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "h7")
    assert main(["build", "--prime", "7", "--kind", "heisenberg",
                 "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "atoms=56" in stdout and "wall=" in stdout
    assert main(["coherence", out]) == 0
    stdout = capsys.readouterr().out
    assert "max coherence" in stdout and "0.377964473" in stdout
    # all 56 * 49 / 2 cross pairs at 1/sqrt(7), in a half-open bin
    assert stdout.splitlines()[-1] == "  [0.36,0.38)  1372"


def test_build_kind_mapping(tmp_path, capsys):
    p = 5
    n_split, n_nonsplit = p * (p + 1) * (p - 2) // 2, p * p * (p - 1) // 2
    closed_forms = {
        "heisenberg": ("heisenberg", p * (p + 1)),
        "oscillator-split": ("oscillator_split", n_split),
        "oscillator-nonsplit": ("oscillator_nonsplit", n_nonsplit),
        "oscillator": ("oscillator", n_split + n_nonsplit),
        "extended": ("extended", p * p * (n_split + n_nonsplit)),
    }
    assert {kind for kind, _ in closed_forms.values()} \
        == set(BUILDERS) == set(KINDS)
    for cli_kind, (kind, atoms) in closed_forms.items():
        out = str(tmp_path / cli_kind)
        assert main(["build", "--prime", str(p), "--kind", cli_kind,
                     "--out", out]) == 0
        assert capsys.readouterr().out.count("\n") == 1
        d = load_dictionary(out)
        assert (d.kind, len(d)) == (kind, atoms), cli_kind


def test_build_rejects_bad_prime(tmp_path, capsys):
    assert main(["build", "--prime", "9", "--out",
                 str(tmp_path / "x")]) == 2
    assert main(["build", "--prime", "3", "--out",
                 str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err
    # argument errors the parser finds give the same one line
    for argv in (["--out", "x"], ["--prime", "5", "--kind", "nope"]):
        assert main(["build"] + argv) == 2, argv
        assert _one_error_line(capsys), argv


def test_build_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("in the way")
    code = main(["build", "--prime", "5", "--out",
                 str(blocker / "sub")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_coherence_missing_and_corrupt(tmp_path, capsys):
    regular = tmp_path / "regular.txt"
    regular.write_text("not a bundle")
    for path in (tmp_path / "nope", regular):
        assert main(["coherence", str(path)]) == 3
        assert _one_error_line(capsys), path
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    corrupt_byte(tmp_path / "h5" / ATOMS_NAME, 50)
    assert main(["coherence", out]) == 4
    capsys.readouterr()


# provenance offsets in the atoms.bin of the p=7 Heisenberg bundle below:
# n = 56 atoms, after the 32-byte header, the 40-byte layout, its one
# orbit's group size and its 7 seed and 7 tail rows of 7 complex128
_N7 = 56
_GROUPS7 = 32 + 40 + 8 + 16 * 14 * 7
_MEMBERS7 = _GROUPS7 + 8 * _N7


def _set_int64(bundle, offset, old, new):
    path = bundle / ATOMS_NAME
    blob = bytearray(path.read_bytes())
    assert int.from_bytes(blob[offset:offset + 8], "little") == old
    blob[offset:offset + 8] = new.to_bytes(8, "little", signed=True)
    path.write_bytes(bytes(blob))


def _set_version(bundle, version):
    path = bundle / ATOMS_NAME
    blob = bytearray(path.read_bytes())
    blob[8:12] = version.to_bytes(4, "little")
    path.write_bytes(bytes(blob))


def _set_uint64(bundle, offset, value):
    path = bundle / ATOMS_NAME
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 8] = value.to_bytes(8, "little")
    path.write_bytes(bytes(blob))


def _drop_manifest_key(bundle, key):
    path = bundle / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("damage", [
    # atom 2's member id 2 -> 5 keeps every other check satisfied; only
    # the digest sees it
    lambda b: _set_int64(b, _MEMBERS7 + 8 * 2, 2, 5),
    lambda b: corrupt_byte(b / ATOMS_NAME, _GROUPS7 + 8 * _N7 + 3),
    lambda b: (_truncate(b, 8), _resign(b)),
    lambda b: (_set_int64(b, _GROUPS7, 0, 5), _resign(b)),
    lambda b: (_set_version(b, 1), _resign(b)),
    lambda b: (_set_version(b, 2), _resign(b)),
    lambda b: _drop_manifest_key(b, "atom_count"),
    lambda b: _drop_manifest_key(b, "kind"),
    lambda b: (b / MANIFEST_NAME).write_text("[1, 2]"),
], ids=["member-id-edit", "provenance-byte-flip", "provenance-truncated",
        "group-ids-decreasing", "format-version-1", "format-version-2",
        "no-atom-count", "no-kind", "manifest-not-object"])
def test_coherence_damaged_bundle_exits_4(tmp_path, capsys, damage):
    out = tmp_path / "h7"
    assert main(["build", "--prime", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    damage(out)
    assert main(["coherence", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt dictionary: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _write_dense_bundle(bundle, d, version):
    """d as a version-1 or version-2 bundle: the 32-byte header, the atoms,
    then the provenance, under a manifest of that version."""
    header = storage._HEADER.pack(storage.MAGIC, version, 1, len(d), d.prime)
    blob = header + b"".join(a.tobytes() for a in (
        d.vectors, d.group_ids, d.member_ids, d.shifts))
    bundle.mkdir()
    (bundle / ATOMS_NAME).write_bytes(blob)
    (bundle / MANIFEST_NAME).write_text(json.dumps({
        "format_version": version, "phase_convention": 4,
        "prime": d.prime, "kind": d.kind, "atom_count": len(d),
        "group_count": d.n_groups, "generator": 3, "created": "",
        "blob_sha256": hashlib.sha256(blob).hexdigest()}))


@pytest.mark.parametrize("version", [1, 2])
def test_old_format_versions_refused(tmp_path, capsys, version):
    bundle = tmp_path / "old"
    _write_dense_bundle(bundle, heisenberg_dictionary(FpField(7)), version)
    with pytest.raises(CorruptDictionaryError,
                       match=f"unsupported format version {version}$"):
        load_dictionary(str(bundle))
    assert main(["coherence", str(bundle)]) == 4
    assert _one_error_line(capsys)


def test_manifest_kind_is_checked_against_the_blob(tmp_path, capsys):
    # the kind is under the digest: a relabelled Heisenberg bundle would
    # otherwise be audited against the vacuous 4/sqrt(7)
    out = tmp_path / "h7"
    assert main(["build", "--prime", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    manifest["kind"] = "oscillator_split"
    (out / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(CorruptDictionaryError, match="kind"):
        load_dictionary(str(out))
    assert main(["coherence", str(out)]) == 4
    assert _one_error_line(capsys)


# offsets of the layout fields in the p=7 Heisenberg atoms.bin
_COUNT, _ORBITS, _TAIL, _SIZE0 = 16, 56, 64, 72


def _prepend_orbit(bundle, size, first_size=7):
    """A second orbit of the given group size put before the one stored,
    whose size becomes first_size: the file stays as long as the layout
    predicts whenever the sizes sum to 7 modulo 2**64."""
    path = bundle / ATOMS_NAME
    blob = path.read_bytes()
    path.write_bytes(blob[:_SIZE0] + size.to_bytes(8, "little")
                     + first_size.to_bytes(8, "little") + blob[_SIZE0 + 8:])
    _set_uint64(bundle, _ORBITS, 2)


@pytest.mark.parametrize("damage", [
    lambda b: _set_uint64(b, _ORBITS, 2),
    lambda b: _set_uint64(b, _ORBITS, 0),
    lambda b: _set_uint64(b, _ORBITS, 2 ** 64 - 1),
    lambda b: _set_uint64(b, _SIZE0, 0),
    lambda b: _set_uint64(b, _SIZE0, 8),
    lambda b: _set_uint64(b, _SIZE0, 2 ** 64 - 1),
    # sizes 0 and 7: the tail start and the length fit, an empty orbit
    lambda b: _prepend_orbit(b, 0),
    # sizes 2**64 - 1 and 8 sum to 7 in uint64
    lambda b: _prepend_orbit(b, 2 ** 64 - 1, 8),
    lambda b: _set_uint64(b, _TAIL, 42),
    lambda b: _set_uint64(b, _TAIL, 57),
    lambda b: _set_uint64(b, _TAIL, 2 ** 63),
    lambda b: _set_uint64(b, _COUNT, 57),
    lambda b: _set_uint64(b, _COUNT, 1 << 20),  # 151 MB: fits, too long
    lambda b: _set_uint64(b, _COUNT, 2 ** 64 - 1),
    lambda b: _set_uint64(b, _COUNT + 8, 1 << 40),  # dimension
    lambda b: _truncate(b, 16),
    lambda b: (b / ATOMS_NAME).write_bytes(
        (b / ATOMS_NAME).read_bytes() + bytes(16)),
    lambda b: (b / ATOMS_NAME).write_bytes(
        (b / ATOMS_NAME).read_bytes()[:70]),
    # atom 6 moved from group 0 to group 1: ids still nondecreasing, but
    # groups of 6 and 8 atoms are not the stored orbit of groups of 7
    lambda b: _set_int64(b, _GROUPS7 + 8 * 6, 0, 1),
], ids=["orbits-2", "orbits-0", "orbits-huge", "size-0", "size-8",
        "size-huge", "empty-orbit", "sizes-wrap", "tail-42", "tail-57", "tail-huge", "count-57",
        "count-2^20", "count-huge", "dimension-huge", "file-short",
        "file-long", "layout-cut", "group-ids-off-layout"])
def test_forged_layout_refused_before_allocation(tmp_path, capsys, damage):
    out = tmp_path / "h7"
    assert main(["build", "--prime", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    damage(out)
    _resign(out)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptDictionaryError):
            load_dictionary(str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak  # the file is 3.4 kB; no atoms allocated
    assert main(["coherence", str(out)]) == 4
    assert _one_error_line(capsys)


def test_load_refuses_more_than_max_bundle_bytes(tmp_path):
    # a header whose regenerated atoms alone (n p 16 bytes) would exceed
    # the limit is refused from the header, like a build of that size
    out = tmp_path / "h7"
    save_dictionary(heisenberg_dictionary(FpField(7)), str(out))
    n = MAX_BUNDLE_BYTES // (16 * 7) + 1
    _set_uint64(out, _COUNT, n)
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    manifest["atom_count"] = n
    (out / MANIFEST_NAME).write_text(json.dumps(manifest))
    _resign(out)
    with pytest.raises(CorruptDictionaryError, match="exceed"):
        load_dictionary(str(out))


def test_build_refuses_oversized_request(tmp_path, capsys):
    # refused before any allocation, with no output directory made: the
    # extended family at p=53 (~350 GB), and a 19-digit prime, refused by
    # size before any primality test
    out = tmp_path / "x"
    for argv in (["--kind", "extended", "--prime", "53"],
                 ["--prime", "1000000000000000003"]):
        t0 = time.perf_counter()
        code = main(["build"] + argv + ["--out", str(out)])
        assert time.perf_counter() - t0 < 0.5, argv
        assert code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "GiB" in err and not out.exists(), argv


def test_coherence_json_and_csv_formats(tmp_path, capsys):
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    capsys.readouterr()
    assert main(["coherence", out, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bound_holds"] is True
    assert rep["max_coherence"] == pytest.approx(1 / np.sqrt(5), abs=1e-9)
    report_path = str(tmp_path / "rep.csv")
    assert main(["coherence", out, "--format", "csv",
                 "--out", report_path]) == 0
    capsys.readouterr()
    lines = open(report_path).read().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 51


def test_coherence_unwritable_report(tmp_path, capsys):
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    code = main(["coherence", out, "--out",
                 str(tmp_path / "no" / "dir" / "rep.txt")])
    assert code == 3
    capsys.readouterr()


def test_coherence_flags_violated_bound(tmp_path, capsys):
    # a hand-made "heisenberg" bundle with two parallel atoms in
    # different groups: coherence 1 > 1/sqrt(5), a non-vacuous violation
    delta = np.zeros(5, dtype=complex)
    delta[0] = 1.0
    fake = Dictionary("heisenberg", 5, np.vstack([delta, delta]),
                      [0, 1], [0, 0])
    save_dictionary(fake, str(tmp_path / "fake"))
    assert main(["coherence", str(tmp_path / "fake")]) == 1
    printed = capsys.readouterr()
    assert "exceeds proven bound" in printed.err
    # the magnitude 1 lies in the last bin, which is closed as in
    # np.histogram, so the text report prints it so
    assert printed.out.splitlines()[-1] == "  [0.98,1.00]  1"


def test_recover_single_signal(tmp_path, capsys):
    out = str(tmp_path / "h7")
    assert main(["build", "--prime", "7", "--out", out]) == 0
    capsys.readouterr()
    d = load_dictionary(out)
    sig = str(tmp_path / "sig.bin")
    save_signal(sig, (1.5 - 0.5j) * d.vectors[17])
    assert main(["recover", out, "--signal", sig, "--sparsity", "1"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("17 ")
    assert "residual" in stdout
    coef = complex(stdout.split()[1].replace("j", "j"))
    assert coef == pytest.approx(1.5 - 0.5j, abs=1e-9)


def test_recover_argument_errors(tmp_path, capsys):
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    capsys.readouterr()
    # neither --signal nor --experiment
    assert main(["recover", out]) == 2
    # experiment without sparsity
    assert main(["recover", out, "--experiment"]) == 2
    # signal of the wrong length
    sig = str(tmp_path / "bad.bin")
    save_signal(sig, np.ones(6, dtype=complex))
    assert main(["recover", out, "--signal", sig]) == 2
    capsys.readouterr()
    # a missing signal file, and a directory named as the signal
    for path in (tmp_path / "ghost.bin", tmp_path):
        assert main(["recover", out, "--signal", str(path)]) == 3
        assert _one_error_line(capsys), path
    # counts out of range: one error line each, no traceback
    save_signal(sig, np.ones(5, dtype=complex))
    for argv in (["--experiment", "--sparsity", "2", "--trials", "0"],
                 ["--experiment", "--sparsity", "2", "--trials", "-1"],
                 ["--experiment", "--sparsity", "31"],
                 ["--signal", sig, "--sparsity", "31"],
                 ["--signal", sig, "--sparsity", "-1"]):
        assert main(["recover", out] + argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_coherence_argument_errors(tmp_path, capsys):
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    capsys.readouterr()
    for samples in ("0", "-3"):
        assert main(["coherence", out, "--mode", "sampled",
                     "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --samples")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["coherence", "--mode", "sampled", "--seed", "-1"],
    ["recover", "--experiment", "--sparsity", "2", "--seed", "-5"]])
def test_negative_seed_refused_before_load(tmp_path, capsys, argv):
    # numpy seeds only non-negative integers: exit 2 and one error line,
    # also for a bundle that does not exist, since nothing is loaded
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    capsys.readouterr()
    for bundle in (out, str(tmp_path / "ghost")):
        assert main(argv[:1] + [bundle] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seed")
        assert captured.err.count("\n") == 1


def test_recover_reports_recovery_failure(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    d = load_dictionary(out)
    sig = str(tmp_path / "sig.bin")
    save_signal(sig, d.vectors[0])

    def failing_omp(dictionary, f, max_support):
        raise RecoveryError("ill-conditioned support")

    monkeypatch.setattr("oscdict.cli.omp", failing_omp)
    assert main(["recover", out, "--signal", sig]) == 5
    assert "recovery failed" in capsys.readouterr().err


def test_recover_experiment(tmp_path, capsys):
    out = str(tmp_path / "h11")
    assert main(["build", "--prime", "11", "--out", out]) == 0
    capsys.readouterr()
    assert main(["recover", out, "--experiment", "--sparsity", "2",
                 "--trials", "20", "--seed", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["trials"] == 20
    assert rep["success_rate"] == 1.0
    assert rep["coef_max_error"] < 1e-9


def test_selftest_passes(capsys):
    assert main(["selftest", "--prime", "5"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 15
    assert all(ln.startswith("PASS") for ln in lines)
    assert "all checks passed" in out


def test_selftest_rejects_composite(capsys):
    assert main(["selftest", "--prime", "9"]) == 2
    assert "not prime" in capsys.readouterr().err
    # split and non-split atoms together above 2 GiB: refused at once
    t0 = time.perf_counter()
    assert main(["selftest", "--prime", "109"]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert _one_error_line(capsys)


def test_cli_builds_are_reproducible(tmp_path, capsys):
    for name in ("a", "b"):
        assert main(["build", "--prime", "7", "--kind", "oscillator-split",
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / ATOMS_NAME).read_bytes() \
        == (tmp_path / "b" / ATOMS_NAME).read_bytes()

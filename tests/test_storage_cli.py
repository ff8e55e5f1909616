"""On-disk format and command-line tests.

All CLI invocations go through main(argv) in-process, so exit codes and
printed output are asserted directly; bundles live in pytest tmp dirs.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from oscdict.cli import main
from oscdict.dictionary import (Dictionary, extended_dictionary,
                                heisenberg_dictionary, split_oscillator)
from oscdict.field import FpField
from oscdict.sparse import RecoveryError
from oscdict.storage import (ATOMS_NAME, CorruptDictionaryError,
                             MANIFEST_NAME, bundle_blob_size,
                             load_dictionary, load_signal, save_dictionary,
                             save_signal)


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
    assert manifest["format_version"] == 2
    assert manifest["phase_convention"] == 2
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
    # header, atoms, group ids, member ids, shifts: all little-endian
    d = extended_dictionary(split_oscillator(FpField(5)))
    save_dictionary(d, str(tmp_path / "b"))
    blob = (tmp_path / "b" / ATOMS_NAME).read_bytes()
    n, p = len(d), d.prime
    assert len(blob) == bundle_blob_size(n, p) == 32 + n * (16 * p + 32)
    assert blob[:8] == b"OSCDICT\x00"
    assert np.array_equal(np.frombuffer(blob[8:32], "<u4", 2), [2, 1])
    assert np.array_equal(np.frombuffer(blob[16:32], "<u8"), [n, p])
    atoms = np.frombuffer(blob, "<c16", n * p, 32).reshape(n, p)
    ids = np.frombuffer(blob, "<i8", 4 * n, 32 + 16 * n * p)
    assert np.array_equal(atoms, d.vectors)
    assert np.array_equal(ids[:n], d.group_ids)
    assert np.array_equal(ids[n:2 * n], d.member_ids)
    assert np.array_equal(ids[2 * n:].reshape(n, 2), d.shifts)
    back = load_dictionary(str(tmp_path / "b"))
    assert back.vectors.flags.writeable and back.group_ids.flags.writeable


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

def test_build_and_coherence_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "h7")
    assert main(["build", "--prime", "7", "--kind", "heisenberg",
                 "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "atoms=56" in stdout and "wall=" in stdout
    assert main(["coherence", out]) == 0
    stdout = capsys.readouterr().out
    assert "max coherence" in stdout and "0.377964473" in stdout


def test_build_kind_mapping(tmp_path, capsys):
    out = str(tmp_path / "ns5")
    assert main(["build", "--prime", "5", "--kind", "oscillator-nonsplit",
                 "--out", out]) == 0
    capsys.readouterr()
    d = load_dictionary(out)
    assert d.kind == "oscillator_nonsplit"
    assert len(d) == 50  # p(p-1)/2 tori, p atoms each


def test_build_rejects_bad_prime(tmp_path, capsys):
    assert main(["build", "--prime", "9", "--out",
                 str(tmp_path / "x")]) == 2
    assert main(["build", "--prime", "3", "--out",
                 str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err


def test_build_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("in the way")
    code = main(["build", "--prime", "5", "--out",
                 str(blocker / "sub")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_coherence_missing_and_corrupt(tmp_path, capsys):
    assert main(["coherence", str(tmp_path / "nope")]) == 3
    out = str(tmp_path / "h5")
    assert main(["build", "--prime", "5", "--out", out]) == 0
    corrupt_byte(tmp_path / "h5" / ATOMS_NAME, 50)
    assert main(["coherence", out]) == 4
    capsys.readouterr()


# provenance offsets in the atoms.bin of the p=7 Heisenberg bundle below:
# n = 56 atoms, after the 32-byte header and the n x 7 complex128 atoms
_N7 = 56
_GROUPS7 = 32 + 16 * _N7 * 7
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
    lambda b: _drop_manifest_key(b, "atom_count"),
    lambda b: _drop_manifest_key(b, "kind"),
    lambda b: (b / MANIFEST_NAME).write_text("[1, 2]"),
], ids=["member-id-edit", "provenance-byte-flip", "provenance-truncated",
        "group-ids-decreasing", "format-version-1", "no-atom-count",
        "no-kind", "manifest-not-object"])
def test_coherence_damaged_bundle_exits_4(tmp_path, capsys, damage):
    out = tmp_path / "h7"
    assert main(["build", "--prime", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    damage(out)
    assert main(["coherence", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt dictionary: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_build_refuses_oversized_request(tmp_path, capsys):
    # the extended family at p=53 would be ~350 GB: refused before any
    # allocation, with no output directory made
    out = tmp_path / "x53"
    t0 = time.perf_counter()
    code = main(["build", "--kind", "extended", "--prime", "53",
                 "--out", str(out)])
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "GiB" in err and not out.exists()


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
    assert "exceeds proven bound" in capsys.readouterr().err


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
    # missing signal file
    assert main(["recover", out, "--signal",
                 str(tmp_path / "ghost.bin")]) == 3
    capsys.readouterr()


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
    assert len(lines) == 14
    assert all(ln.startswith("PASS") for ln in lines)
    assert "all checks passed" in out


def test_selftest_rejects_composite(capsys):
    assert main(["selftest", "--prime", "9"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_cli_builds_are_reproducible(tmp_path, capsys):
    for name in ("a", "b"):
        assert main(["build", "--prime", "7", "--kind", "oscillator-split",
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / ATOMS_NAME).read_bytes() \
        == (tmp_path / "b" / ATOMS_NAME).read_bytes()

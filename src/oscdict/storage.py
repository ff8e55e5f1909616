"""On-disk formats: dictionary bundles and signal files.

A dictionary is saved as a directory with three files:

* ``atoms.bin``       — 32-byte header then the atoms as little-endian
                        complex128, atom-major;
* ``manifest.json``   — prime, kind, counts, generator, phase-convention
                        version, build timestamp, and the SHA-256 of
                        atoms.bin (sorted keys, so bytes are stable);
* ``provenance.csv``  — atom_index, group_id, member_index, shift_tau,
                        shift_w.

The header is magic "OSCDICT\\0", format version u32, payload kind u32
(1 = dictionary, 2 = signal), element count u64, dimension u64.  Signals
use the same header in a single file.  All writes are atomic
(temp file + rename); loads verify magic, version, digest, and counts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import struct
import tempfile
from datetime import datetime, timezone

import numpy as np

from .dictionary import Dictionary

MAGIC = b"OSCDICT\x00"
FORMAT_VERSION = 1
PHASE_CONVENTION = 2
PAYLOAD_DICTIONARY = 1
PAYLOAD_SIGNAL = 2
_HEADER = struct.Struct("<8sIIQQ")

MANIFEST_NAME = "manifest.json"
ATOMS_NAME = "atoms.bin"
PROVENANCE_NAME = "provenance.csv"


class CorruptDictionaryError(Exception):
    """The file exists but fails an integrity check."""


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pack(payload_kind: int, count: int, dim: int,
          body: np.ndarray) -> bytes:
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, payload_kind, count, dim)
    return header + np.ascontiguousarray(body,
                                         dtype="<c16").tobytes()


def _unpack(blob: bytes, expected_kind: int):
    if len(blob) < _HEADER.size:
        raise CorruptDictionaryError("file shorter than header")
    magic, version, payload, count, dim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptDictionaryError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptDictionaryError(f"unsupported format version {version}")
    if payload != expected_kind:
        raise CorruptDictionaryError(f"unexpected payload kind {payload}")
    body = blob[_HEADER.size:]
    if len(body) != count * dim * 16:
        raise CorruptDictionaryError(
            f"payload length {len(body)} != {count}x{dim} complex values")
    data = np.frombuffer(body, dtype="<c16").reshape(count, dim)
    return data.astype(np.complex128)


def save_dictionary(d: Dictionary, out_dir: str) -> dict:
    """Write the three-file bundle; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    blob = _pack(PAYLOAD_DICTIONARY, len(d), d.prime, d.vectors)
    manifest = {
        "format_version": FORMAT_VERSION,
        "phase_convention": PHASE_CONVENTION,
        "prime": d.prime,
        "kind": d.kind,
        "atom_count": len(d),
        "group_count": d.n_groups,
        "generator": _field_generator(d.prime),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["atom_index", "group_id", "member_index",
                     "shift_tau", "shift_w"])
    writer.writerows(np.column_stack([np.arange(len(d)), d.group_ids,
                                      d.member_ids, d.shifts]).tolist())
    _atomic_write(os.path.join(out_dir, ATOMS_NAME), blob)
    _atomic_write(os.path.join(out_dir, PROVENANCE_NAME),
                  buf.getvalue().encode())
    _atomic_write(os.path.join(out_dir, MANIFEST_NAME),
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n")
                  .encode())
    return manifest


def _field_generator(p: int) -> int:
    from .field import FpField
    return FpField(p).mult_generator()


def load_dictionary(in_dir: str) -> Dictionary:
    """Load and fully verify a saved bundle.

    Damage of any kind raises CorruptDictionaryError: a manifest that is
    not a JSON object or lacks a key, a provenance field that is not an
    integer, provenance indices that are not a permutation of the atoms,
    or values that Dictionary rejects.
    """
    try:
        return _load_bundle(in_dir)
    except KeyError as e:
        raise CorruptDictionaryError(f"manifest lacks key {e}") from e
    except ValueError as e:
        raise CorruptDictionaryError(str(e)) from e


def _load_bundle(in_dir: str) -> Dictionary:
    manifest_path = os.path.join(in_dir, MANIFEST_NAME)
    with open(manifest_path, "rb") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as e:
            raise CorruptDictionaryError(f"manifest is not JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CorruptDictionaryError("manifest is not a JSON object")
    with open(os.path.join(in_dir, ATOMS_NAME), "rb") as fh:
        blob = fh.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest.get("blob_sha256"):
        raise CorruptDictionaryError("atom blob digest mismatch")
    vectors = _unpack(blob, PAYLOAD_DICTIONARY)
    n = len(vectors)
    if n != manifest["atom_count"]:
        raise CorruptDictionaryError("manifest atom count != blob count")
    if vectors.shape[1] != manifest["prime"]:
        raise CorruptDictionaryError("manifest prime != blob dimension")
    with open(os.path.join(in_dir, PROVENANCE_NAME), newline="") as fh:
        try:
            table = np.loadtxt(fh, dtype=np.int64, delimiter=",",
                               skiprows=1, ndmin=2, comments=None)
        except ValueError as e:
            raise CorruptDictionaryError(f"provenance: {e}") from e
    if len(table) != n:
        raise CorruptDictionaryError("provenance row count mismatch")
    if table.size != 5 * n:
        raise CorruptDictionaryError("provenance rows do not have 5 fields")
    table = table.reshape(n, 5)
    index = table[:, 0]
    if np.any((index < 0) | (index >= n)):
        raise CorruptDictionaryError("provenance index out of range")
    if not np.all(np.bincount(index, minlength=n) == 1):
        raise CorruptDictionaryError(
            "provenance indices are not a permutation of the atoms")
    rows = np.empty_like(table)
    rows[index] = table
    d = Dictionary(manifest["kind"], manifest["prime"], vectors,
                   rows[:, 1].copy(), rows[:, 2].copy(), rows[:, 3:].copy())
    if d.n_groups != manifest["group_count"]:
        raise CorruptDictionaryError("manifest group count mismatch")
    return d


def save_signal(path: str, f: np.ndarray) -> None:
    f = np.asarray(f, dtype=np.complex128).reshape(1, -1)
    _atomic_write(path, _pack(PAYLOAD_SIGNAL, 1, f.shape[1], f))


def load_signal(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    return _unpack(blob, PAYLOAD_SIGNAL)[0]

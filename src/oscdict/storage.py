"""On-disk formats: dictionary bundles and signal files.

A dictionary is saved as a directory with two files:

* ``atoms.bin``       — 32-byte header, then the n x p atoms as
                        little-endian complex128 (atom-major), then the
                        provenance as little-endian int64: the n group
                        ids, the n member ids and the n x 2 shifts
                        (tau, w);
* ``manifest.json``   — prime, kind, counts, generator, phase-convention
                        version, build timestamp, and the SHA-256 of all
                        of atoms.bin (sorted keys, so bytes are stable).

The header is magic "OSCDICT\\0", format version u32, payload kind u32
(1 = dictionary, 2 = signal), element count u64, dimension u64.  Signals
use the same header, followed by the samples, in a single file.  All
writes are atomic (temp file + rename); loads verify the digest, magic,
version, payload kind, exact length and counts, and read the arrays as
views of one buffer, without copies.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from datetime import datetime, timezone

import numpy as np

from .dictionary import Dictionary

MAGIC = b"OSCDICT\x00"
FORMAT_VERSION = 2
PHASE_CONVENTION = 4
PAYLOAD_DICTIONARY = 1
PAYLOAD_SIGNAL = 2
_HEADER = struct.Struct("<8sIIQQ")
_PROVENANCE_BYTES = 32  # group id, member id, shift (tau, w): 4 x int64

MANIFEST_NAME = "manifest.json"
ATOMS_NAME = "atoms.bin"


class CorruptDictionaryError(Exception):
    """The file exists but fails an integrity check."""

    what = "dictionary"


class CorruptSignalError(CorruptDictionaryError):
    what = "signal"


def bundle_blob_size(count: int, dim: int) -> int:
    """Bytes of the atoms.bin of a bundle of count atoms in C^dim."""
    return _HEADER.size + count * (16 * dim + _PROVENANCE_BYTES)


def _atomic_write(path: str, chunks) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _chunks(payload_kind: int, count: int, dim: int, arrays) -> list:
    """The header, then each array's bytes in little-endian order: a
    zero-copy view when the array is already contiguous."""
    chunks = [_HEADER.pack(MAGIC, FORMAT_VERSION, payload_kind, count, dim)]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
        chunks.append(memoryview(a.reshape(-1).view(np.uint8)))
    return chunks


def _read(path: str) -> np.ndarray:
    """The whole file in one numpy byte buffer.  Unlike a bytearray, numpy
    backs large buffers with huge pages, which the random row gathers of
    sampled scans run measurably faster on."""
    with open(path, "rb") as fh:
        blob = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        if fh.readinto(blob) != len(blob):
            raise CorruptDictionaryError(f"{path} changed while read")
    return blob


def _unpack_header(blob: np.ndarray, expected_kind: int, size_of) -> tuple:
    """Validate the header and the exact file length, which size_of(count,
    dim) gives; return (count, dim)."""
    if len(blob) < _HEADER.size:
        raise CorruptDictionaryError("file shorter than header")
    magic, version, payload, count, dim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptDictionaryError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptDictionaryError(f"unsupported format version {version}")
    if payload != expected_kind:
        raise CorruptDictionaryError(f"unexpected payload kind {payload}")
    if len(blob) != size_of(count, dim):
        raise CorruptDictionaryError(
            f"file length {len(blob)} != {size_of(count, dim)} bytes for "
            f"{count} elements of dimension {dim}")
    return count, dim


def save_dictionary(d: Dictionary, out_dir: str) -> dict:
    """Write the two-file bundle; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    chunks = _chunks(PAYLOAD_DICTIONARY, len(d), d.prime,
                     (d.vectors, d.group_ids, d.member_ids, d.shifts))
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    manifest = {
        "format_version": FORMAT_VERSION,
        "phase_convention": PHASE_CONVENTION,
        "prime": d.prime,
        "kind": d.kind,
        "atom_count": len(d),
        "group_count": d.n_groups,
        "generator": _field_generator(d.prime),
        "blob_sha256": digest.hexdigest(),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    _atomic_write(os.path.join(out_dir, ATOMS_NAME), chunks)
    _atomic_write(os.path.join(out_dir, MANIFEST_NAME),
                  [(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
                   .encode()])
    return manifest


def _field_generator(p: int) -> int:
    from .field import FpField
    return FpField(p).mult_generator()


def load_dictionary(in_dir: str) -> Dictionary:
    """Load and fully verify a saved bundle.

    Damage of any kind raises CorruptDictionaryError: a manifest that is
    not a JSON object or lacks a key, a digest, header or length
    mismatch, counts that disagree with the manifest, or provenance that
    Dictionary rejects.  The returned arrays are writable views of the
    one buffer the file was read into.
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
    kind, prime = manifest["kind"], manifest["prime"]
    atom_count, group_count = manifest["atom_count"], manifest["group_count"]
    blob = _read(os.path.join(in_dir, ATOMS_NAME))
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise CorruptDictionaryError("atom blob digest mismatch")
    n, p = _unpack_header(blob, PAYLOAD_DICTIONARY, bundle_blob_size)
    if n != atom_count:
        raise CorruptDictionaryError("manifest atom count != blob count")
    if p != prime:
        raise CorruptDictionaryError("manifest prime != blob dimension")
    vectors = np.frombuffer(blob, "<c16", count=n * p,
                            offset=_HEADER.size).reshape(n, p)
    ids = np.frombuffer(blob, "<i8", count=4 * n,
                        offset=_HEADER.size + vectors.nbytes)
    d = Dictionary(kind, p, vectors, ids[:n], ids[n:2 * n],
                   ids[2 * n:].reshape(n, 2))
    if d.n_groups != group_count:
        raise CorruptDictionaryError("manifest group count mismatch")
    return d


def save_signal(path: str, f: np.ndarray) -> None:
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    _atomic_write(path, _chunks(PAYLOAD_SIGNAL, 1, len(f), (f,)))


def load_signal(path: str) -> np.ndarray:
    """Load and verify a one-signal file; damage raises CorruptSignalError."""
    try:
        blob = _read(path)
        count, dim = _unpack_header(blob, PAYLOAD_SIGNAL,
                                    lambda count, dim: _HEADER.size
                                    + 16 * count * dim)
    except CorruptDictionaryError as e:
        raise CorruptSignalError(str(e)) from e
    if count != 1:
        raise CorruptSignalError(f"signal file holds {count} signals")
    return np.frombuffer(blob, "<c16", count=dim, offset=_HEADER.size)

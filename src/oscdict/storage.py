"""On-disk formats: dictionary bundles and signal files.

A dictionary is saved as a directory with two files:

* ``atoms.bin``       — the 32-byte header, the 40-byte layout, then
                        little-endian arrays: the group size of each
                        chirp orbit (uint64), each orbit's seed rows (its
                        group (j, 0)) and the tail rows (complex128,
                        atom-major), and the provenance (int64): the n
                        group ids, the n member ids and the n x 2 shifts
                        (tau, w);
* ``manifest.json``   — prime, kind, counts, generator, phase-convention
                        version, build timestamp, and the SHA-256 of all
                        of atoms.bin (sorted keys, so bytes are stable).

The header is magic "OSCDICT\\0", format version u32, payload kind u32
(1 = dictionary, 2 = signal), element count u64, dimension u64.  The
layout is the kind (ASCII, NUL-padded to 24 bytes), the orbit count u64
and the first atom of the tail u64, all under the digest.  Signals use
the same header, followed by the samples, in a single file.

A save stores the seed rows of the orbits a dictionary declares
(``Dictionary.orbits``) only where ``chirp_orbit``, the build's own
broadcast, gives back every orbit bit for bit (``_seed_sizes``); any
other dictionary is stored as tail rows alone.  A load checks every
header and layout field against the file length and MAX_BUNDLE_BYTES
before it allocates, reads the file straight into the arrays it returns
while it digests it, regenerates the orbits with the same
``chirp_orbit`` and declares them, so it knows them for orbits without
checking the atoms.  All writes are atomic (temp file + rename) and
copy no array.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from datetime import datetime, timezone

import numpy as np

from .dictionary import Dictionary, chirp_orbit
from .field import FpField
from .weil import chirp_table

MAGIC = b"OSCDICT\x00"
FORMAT_VERSION = 3
PHASE_CONVENTION = 4
PAYLOAD_DICTIONARY = 1
PAYLOAD_SIGNAL = 2
_HEADER = struct.Struct("<8sIIQQ")
_LAYOUT = struct.Struct("<24sQQ")  # kind, orbit count, tail start
_PROVENANCE_BYTES = 32  # group id, member id, shift (tau, w): 4 x int64
# largest dictionary, atoms and provenance in memory, that a build makes or
# a load regenerates
MAX_BUNDLE_BYTES = 2 << 30

MANIFEST_NAME = "manifest.json"
ATOMS_NAME = "atoms.bin"


class CorruptDictionaryError(Exception):
    """The file exists but fails an integrity check."""

    what = "dictionary"


class CorruptSignalError(CorruptDictionaryError):
    what = "signal"


def dictionary_bytes(count: int, dim: int) -> int:
    """Bytes of the atoms and provenance of count atoms in C^dim: what a
    build or a load holds in memory."""
    return count * (16 * dim + _PROVENANCE_BYTES)


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


def _chunks(payload_kind: int, count: int, dim: int, arrays,
            layout: bytes = b"") -> list:
    """The header and layout, then each array's bytes in little-endian
    order: a zero-copy view when the array is already contiguous."""
    chunks = [_HEADER.pack(MAGIC, FORMAT_VERSION, payload_kind, count, dim)
              + layout]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
        chunks.append(memoryview(a.reshape(-1).view(np.uint8)))
    return chunks


def _read(path: str) -> np.ndarray:
    """The whole file in one numpy byte buffer, which a loaded signal is
    a view of."""
    with open(path, "rb") as fh:
        blob = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        if fh.readinto(blob) != len(blob):
            raise CorruptDictionaryError(f"{path} changed while read")
    return blob


def _unpack_header(blob: np.ndarray, expected_kind: int) -> tuple:
    """Validate magic, version and payload kind; return (count, dim)."""
    if len(blob) < _HEADER.size:
        raise CorruptDictionaryError("file shorter than header")
    magic, version, payload, count, dim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptDictionaryError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptDictionaryError(f"unsupported format version {version}")
    if payload != expected_kind:
        raise CorruptDictionaryError(f"unexpected payload kind {payload}")
    return count, dim


def _check_length(length: int, size: int, what: str) -> None:
    if length != size:
        raise CorruptDictionaryError(
            f"file length {length} != {size} bytes for {what}")


def save_dictionary(d: Dictionary, out_dir: str) -> dict:
    """Write the two-file bundle; returns the manifest dict."""
    n, p = len(d), d.prime
    if dictionary_bytes(n, p) > MAX_BUNDLE_BYTES:
        raise ValueError(f"{n} atoms in C^{p} exceed the "
                         f"{MAX_BUNDLE_BYTES} bytes a load accepts")
    sizes = _seed_sizes(d)
    tail = p * int(sizes.sum())
    seeds = [d.vectors[lo:lo + m]
             for lo, m in zip(p * (np.cumsum(sizes) - sizes), sizes)]
    chunks = _chunks(PAYLOAD_DICTIONARY, n, p,
                     (sizes.astype(np.uint64), *seeds, d.vectors[tail:],
                      d.group_ids, d.member_ids, d.shifts),
                     _LAYOUT.pack(d.kind.encode("ascii"), len(sizes), tail))
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    manifest = {
        "format_version": FORMAT_VERSION,
        "phase_convention": PHASE_CONVENTION,
        "prime": p,
        "kind": d.kind,
        "atom_count": n,
        "group_count": d.n_groups,
        "generator": FpField(p).mult_generator(),
        "blob_sha256": digest.hexdigest(),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, ATOMS_NAME), chunks)
    _atomic_write(os.path.join(out_dir, MANIFEST_NAME),
                  [(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
                   .encode()])
    return manifest


def _seed_sizes(d: Dictionary) -> np.ndarray:
    """The group size of each chirp orbit d declares, when chirp_orbit
    gives every orbit back bit for bit from its group (j, 0) rows; else
    none, so that every row is tail.  The scratch is one orbit."""
    sizes = d.orbits
    if not len(sizes):
        return sizes
    p = d.prime
    chirp = chirp_table(FpField(p))
    scratch = np.empty(p * int(sizes.max()) * p, dtype=np.complex128)
    lo = 0
    for m in sizes.tolist():
        orbit = scratch[:p * m * p].reshape(p, m, p)
        chirp_orbit(d.vectors[lo:lo + m], chirp, orbit)
        built = d.vectors[lo:lo + p * m].reshape(p, m, p)
        if not np.array_equal(orbit.view(np.uint64), built.view(np.uint64)):
            return np.zeros(0, dtype=np.int64)
        lo += p * m
    return sizes


def load_dictionary(in_dir: str) -> Dictionary:
    """Load and fully verify a saved bundle.

    Damage of any kind raises CorruptDictionaryError: a manifest that is
    not a JSON object, lacks a key or disagrees with atoms.bin on the
    kind or a count, a digest, header, layout or length mismatch, a
    dictionary above MAX_BUNDLE_BYTES, or provenance that Dictionary
    rejects, group ids that disagree with the stored orbit layout
    among them.  The layout is checked against the file length before
    any array is allocated.  The tail rows and the provenance are read
    straight into the returned arrays, which are writable, and each
    orbit is regenerated from its seed rows and declared, so its orbit
    defect is the rounding bound of ``chirp_orbit``; an all-tail bundle
    declares none and is read densely.
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
    digest = hashlib.sha256()
    with open(os.path.join(in_dir, ATOMS_NAME), "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
        head = _read_into(fh, digest, np.empty(
            min(length, _HEADER.size + _LAYOUT.size), dtype=np.uint8))
        n, p = _unpack_header(head, PAYLOAD_DICTIONARY)
        orbits, tail = _unpack_layout(head, n, p, kind, length)
        sizes = _read_into(fh, digest, np.empty(orbits, dtype="<u8"))
        rows = _check_sizes(sizes, n, p, tail, length)
        # Little-endian arrays, so the file's bytes are their values.  The
        # seed rows take 16 tail <= 16 n bytes, half the provenance array,
        # so they are read into it and spread over their orbits before the
        # provenance is read over them: the load holds no second copy of
        # the file.  The digest is checked once the whole file is read.
        vectors = np.empty((n, p), dtype="<c16")
        ids = np.empty(4 * n, dtype="<i8")
        seeds = _read_into(fh, digest, ids.view("<c16")[:rows * p]
                           .reshape(rows, p))
        chirp = chirp_table(FpField(p)) if orbits else None
        lo = r = 0
        for m in sizes.tolist():
            chirp_orbit(seeds[r:r + m], chirp,
                        vectors[lo:lo + p * m].reshape(p, m, p))
            lo, r = lo + p * m, r + m
        _read_into(fh, digest, vectors[tail:])
        _read_into(fh, digest, ids)
    if digest.hexdigest() != manifest["blob_sha256"]:
        raise CorruptDictionaryError("atom blob digest mismatch")
    if n != atom_count:
        raise CorruptDictionaryError("manifest atom count != blob count")
    if p != prime:
        raise CorruptDictionaryError("manifest prime != blob dimension")
    d = Dictionary(kind, p, vectors, ids[:n], ids[n:2 * n],
                   ids[2 * n:].reshape(n, 2), orbits=sizes)
    if d.n_groups != group_count:
        raise CorruptDictionaryError("manifest group count mismatch")
    return d


def _read_into(fh, digest, array: np.ndarray) -> np.ndarray:
    """Fill the contiguous array with the next bytes of fh and feed them
    to digest, so the digest covers the file in order."""
    if fh.readinto(array) != array.nbytes:
        raise CorruptDictionaryError("atoms.bin changed while read")
    digest.update(array)
    return array


def _unpack_layout(head: np.ndarray, n: int, p: int, manifest_kind,
                   length: int) -> tuple:
    """Validate the layout of an atoms.bin of n atoms in C^p against the
    manifest's kind and MAX_BUNDLE_BYTES; return (orbit count, tail
    start)."""
    if len(head) < _HEADER.size + _LAYOUT.size:
        raise CorruptDictionaryError("file shorter than layout")
    raw_kind, orbits, tail = _LAYOUT.unpack_from(head, _HEADER.size)
    kind = raw_kind.rstrip(b"\0").decode("ascii", "replace")
    if kind != manifest_kind:
        raise CorruptDictionaryError(
            f"manifest kind {manifest_kind!r} != blob kind {kind!r}")
    if dictionary_bytes(n, p) > MAX_BUNDLE_BYTES:
        raise CorruptDictionaryError(
            f"{n} atoms in C^{p} exceed the {MAX_BUNDLE_BYTES} byte limit")
    if tail > n or orbits * p > tail:
        raise CorruptDictionaryError(
            f"{orbits} orbits and tail start {tail} do not fit {n} atoms")
    if length < len(head) + 8 * orbits:
        raise CorruptDictionaryError("file shorter than orbit layout")
    return orbits, tail


def _check_sizes(sizes: np.ndarray, n: int, p: int, tail: int,
                 length: int) -> int:
    """Validate the orbit group sizes against the tail start and the exact
    file length they predict; return the number of seed rows."""
    if len(sizes) and (sizes.min() == 0 or sizes.max() > n):
        raise CorruptDictionaryError("orbit group size out of range")
    rows = int(sizes.sum())
    if p * rows != tail:
        raise CorruptDictionaryError(
            f"orbits of {rows} seed rows end at {p * rows}, not at tail "
            f"start {tail}")
    if len(sizes):
        FpField(p)  # a ValueError unless orbits have chirps over F_p
    _check_length(length, _HEADER.size + _LAYOUT.size + 8 * len(sizes)
                  + 16 * p * (rows + n - tail) + _PROVENANCE_BYTES * n,
                  f"{n} atoms of dimension {p}, {rows} of them seed rows "
                  f"and {n - tail} tail rows")
    return rows


def save_signal(path: str, f: np.ndarray) -> None:
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    _atomic_write(path, _chunks(PAYLOAD_SIGNAL, 1, len(f), (f,)))


def load_signal(path: str) -> np.ndarray:
    """Load and verify a one-signal file; damage raises CorruptSignalError."""
    try:
        blob = _read(path)
        count, dim = _unpack_header(blob, PAYLOAD_SIGNAL)
        _check_length(len(blob), _HEADER.size + 16 * count * dim,
                      f"{count} signals of dimension {dim}")
    except CorruptDictionaryError as e:
        raise CorruptSignalError(str(e)) from e
    if count != 1:
        raise CorruptSignalError(f"signal file holds {count} signals")
    return np.frombuffer(blob, "<c16", count=dim, offset=_HEADER.size)

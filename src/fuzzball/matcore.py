"""
Dense complex matrix utilities shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with dtype complex128 and
row-major layout.  Constructors validate shape and finiteness; everything
else is a pure function of its inputs.
"""

import itertools
import json
import math
import os
import pickle
import sys

import numpy as np

__all__ = [
    "as_matrix",
    "dagger",
    "commutator",
    "frobenius_norm",
    "max_frobenius",
    "spectral_norm",
    "is_unitary",
    "random_unitary",
    "matrix_to_json",
    "matrix_from_json",
    "plain_json",
    "write_json",
]

# rows of a matrix formatted per block in write_json: the text and the
# float objects held at once cover a few blocks, not the matrix
JSON_BLOCK_ROWS = 32

# a block map (_map_blocks: the bulk writers, the geometry grid) over fewer
# rows than this runs in process: forking the workers (5-10 ms) would cost
# more than the other cores save
POOL_MIN_ROWS = 128


def as_matrix(obj):
    """Coerce to a finite 2-d complex128 array (copying only if needed)."""
    a = np.asarray(obj, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def dagger(a):
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def commutator(a, b):
    """a b - b a, the difference formed in the buffer of a b."""
    ab = a @ b
    return np.subtract(ab, b @ a, out=ab)


def frobenius_norm(a):
    return float(np.linalg.norm(a))


def _nan_max(values):
    """max of the floats ``values``, NaN if any is NaN (the builtin max alone
    drops a NaN that does not come first)."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def max_frobenius(mats):
    """max_k ||mats_k||_F, NaN if any norm is NaN.  Each matrix is released
    once its norm is taken, before the next one is formed."""
    return _nan_max(map(frobenius_norm, mats))


def _block_rows(partition):
    """(k, size) for each row of the block-diagonal layout of ``partition``,
    as float arrays: the row's place k = 1..size in its block and that
    block's size.  No block, or a block smaller than 1, is refused."""
    sizes = np.asarray(partition, dtype=int)
    if not sizes.size or sizes.min() < 1:
        raise ValueError("a partition needs one or more blocks, each of size at least 1")
    offset = np.repeat(np.cumsum(sizes) - sizes, sizes)  # each row's block start
    return np.arange(1.0, len(offset) + 1) - offset, np.repeat(sizes, sizes).astype(float)


def spectral_norm(a):
    return float(np.linalg.norm(a, 2))


def is_unitary(a):
    """||a^dag a - 1||_F <= 1e-10 n for a square n x n matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    n = a.shape[0]
    gram = dagger(a) @ a
    # the identity is subtracted in place, from the diagonal alone: the
    # entries of gram - np.eye(n), bit for bit
    gram.flat[:: n + 1] -= 1
    return frobenius_norm(gram) <= 1e-10 * n


def random_unitary(n, rng):
    """Haar-distributed unitary from QR of a complex Gaussian matrix."""
    # each Gaussian is drawn straight into its part: the draws, and bits, of
    # rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z = np.empty((n, n), dtype=complex)
    z.real = rng.normal(size=(n, n))
    z.imag = rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    del z
    d = r.diagonal().copy()
    del r
    q *= d / np.abs(d)
    return q


def matrix_to_json(a):
    """Interchange form: {"rows", "cols", "data": [[re, im], ...] row-major}."""
    a = as_matrix(a)
    data = np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj):
    """Inverse of matrix_to_json.  Raises ValueError unless ``data`` is a
    rows*cols x 2 table of finite JSON numbers: strings, nulls, booleans and
    ragged pairs are refused; integers of any size are read as floats."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        # types are checked first: the conversion reads true as 1 and "1" as 1.0
        kinds = set(map(type, itertools.chain.from_iterable(obj["data"])))
        if not kinds <= {int, float}:
            names = sorted(k.__name__ for k in kinds)
            raise ValueError(f"data must be JSON numbers, got {names} entries")
        data = np.asarray(obj["data"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"malformed matrix: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # ragged pairs land here too
        raise ValueError(f"malformed matrix: {exc}") from exc
    if data.shape != (rows * cols, 2):
        raise ValueError(
            f"matrix data has shape {data.shape}, expected a {rows * cols} x 2 "
            "table of [re, im] pairs"
        )
    flat = np.ascontiguousarray(data).view(complex)
    return as_matrix(flat.reshape(rows, cols))


def _holds_array(obj):
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, dict):
        return any(map(_holds_array, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_holds_array, obj))
    return False


def plain_json(obj):
    """``obj`` with every ndarray in its dicts, lists and tuples replaced by
    ``matrix_to_json`` of it: the value whose compact ``json.dumps`` is what
    ``write_json`` writes."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if not _holds_array(obj):
        return obj
    if isinstance(obj, dict):
        return {key: plain_json(value) for key, value in obj.items()}
    return [plain_json(value) for value in obj]


def _send_blocks(block, indices, fd):
    """Worker side of _map_blocks: write to the pipe ``fd`` one frame per
    block, a tag, the payload length and the payload: ``b"T"`` and the UTF-8
    text of a str block, ``b"F"`` and the raw bytes of a float64 array
    block, or, if the block raises, ``b"E"`` and the pickled exception."""
    with open(fd, "wb") as pipe:
        try:
            for index in indices:
                result = block(index)
                if isinstance(result, str):
                    tag, payload = b"T", result.encode()
                else:
                    tag, payload = b"F", np.asarray(result, dtype=float).tobytes()
                pipe.write(tag + len(payload).to_bytes(8, "little"))
                pipe.write(payload)
        except Exception as exc:
            payload = pickle.dumps(exc)
            pipe.write(b"E" + len(payload).to_bytes(8, "little") + payload)


def _receive_block(pipe):
    """Parent side: the next block from ``pipe`` (a str, or a flat float64
    array), or the worker's exception raised here."""
    head = pipe.read(9)
    size = int.from_bytes(head[1:], "little")
    body = pipe.read(size)
    if len(head) < 9 or len(body) < size:
        raise OSError("a block worker died before sending its block")
    if head[:1] == b"E":
        raise pickle.loads(body)
    if head[:1] == b"F":
        return np.frombuffer(body)
    return body.decode()


def _map_blocks(block, n_blocks, rows, take):
    """Call ``take(block(0))``, ..., ``take(block(n_blocks - 1))`` in order.

    ``block`` returns a str or a float64 array; from a worker an array
    arrives flat (C order) and read-only, so ``take`` reshapes or copies it.
    ``rows`` is the number of rows the blocks cover.  From POOL_MIN_ROWS
    rows on, with two blocks or more and more than one usable CPU, the
    blocks are computed in forked workers, one per CPU in
    os.sched_getaffinity(0): worker ``w`` of ``k`` computes blocks ``w``,
    ``w + k``, ... and writes each to its own pipe, where it waits until it
    is read, so at most one block per worker is in flight.  Otherwise they
    are computed by a plain map in process.  The workers inherit ``block``
    and its data through the fork, call no BLAS, and leave through
    os._exit.  No thread is started, so no lock another thread holds is
    inherited locked.  The std streams are flushed before the fork, and
    writers flush their own stream, so no buffered byte is held by two
    processes.  A worker's exception is raised here, and a worker that dies
    is an OSError, not a hang: closing the read ends stops the other
    workers, and every worker is reaped before this returns or raises.
    """
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if rows < POOL_MIN_ROWS or workers < 2 or n_blocks < 2:
        for index in range(n_blocks):
            take(block(index))
        return
    workers = min(workers, n_blocks)
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    pipes = {}  # worker pid -> read end of its pipe
    try:
        for worker in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # only the parent may hold a read end, so that closing
                    # it stops the worker writing to it
                    for pipe in pipes.values():
                        pipe.close()
                    os.close(read_fd)
                    _send_blocks(block, range(worker, n_blocks, workers), write_fd)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            pipes[pid] = open(read_fd, "rb")
        order = list(pipes.values())
        for index in range(n_blocks):
            take(_receive_block(order[index % workers]))
    finally:
        for pipe in pipes.values():
            pipe.close()
        for pid in pipes:
            os.waitpid(pid, 0)


def _write_blocks(fh, format_block, n_blocks, rows):
    """Write the str blocks ``format_block(0)``, ... to ``fh`` in order
    (_map_blocks); ``fh`` is flushed before any fork."""
    fh.flush()
    _map_blocks(format_block, n_blocks, rows, fh.write)


def _matrix_block(a, index):
    """Rows ``JSON_BLOCK_ROWS * index`` on of ``a`` as the pairs of the
    ``data`` list, led by the separator from the previous block.  ``%r`` is
    the ``float.__repr__`` the json encoder uses."""
    start = index * JSON_BLOCK_ROWS
    flat = np.ascontiguousarray(a[start : start + JSON_BLOCK_ROWS]).view(float).ravel().tolist()
    pairs = "],[".join(["%r,%r"] * (len(flat) // 2)) % tuple(flat)
    return ("[" if index == 0 else "],[") + pairs


def _write_matrix(fh, a):
    """``matrix_to_json(a)`` as compact JSON, formatted JSON_BLOCK_ROWS rows
    per block (_write_blocks).  as_matrix has refused non-finite entries
    before any worker starts, so the bytes are those of json.dumps."""
    a = as_matrix(a)
    rows, cols = a.shape
    fh.write(f'{{"rows":{rows},"cols":{cols},"data":[')
    n_blocks = -(-rows // JSON_BLOCK_ROWS) if cols else 0
    _write_blocks(fh, lambda index: _matrix_block(a, index), n_blocks, rows)
    fh.write("]]}" if a.size else "]}")


class _HoldsArray(Exception):
    """Raised by _refuse_array: the value being dumped holds an ndarray."""


def _refuse_array(obj):
    """``default`` hook of write_json's json.dumps: an ndarray stops the
    dump, any other object is refused as json.dumps refuses it."""
    if isinstance(obj, np.ndarray):
        raise _HoldsArray
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(fh, obj):
    """Write ``json.dumps(plain_json(obj), separators=(",", ":"))`` to the
    text stream ``fh`` without forming it: each ndarray is formatted
    JSON_BLOCK_ROWS rows per block, in order, in forked workers on every
    usable CPU (in process below POOL_MIN_ROWS rows or on one CPU).  A value
    is first dumped whole by one json.dumps call, which stops at the first
    ndarray it meets; only then are the items of that dict or list written
    one by one, each the same way.  Dicts that hold arrays need string
    keys."""
    if isinstance(obj, np.ndarray):
        _write_matrix(fh, obj)
        return
    try:
        text = json.dumps(obj, separators=(",", ":"), default=_refuse_array)
    except _HoldsArray:
        pass
    else:
        fh.write(text)
        return
    if isinstance(obj, dict):
        sep = "{"
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys of a dict holding arrays must be str, got {key!r}")
            fh.write(sep + json.dumps(key) + ":")
            write_json(fh, value)
            sep = ","
        fh.write("}")
    else:
        sep = "["
        for value in obj:
            fh.write(sep)
            write_json(fh, value)
            sep = ","
        fh.write("]")

"""Small shared output helpers: atomic writes, hashing, number formatting."""

import hashlib
import os
import tempfile


def fmt(x):
    """Shortest decimal that round-trips the float (repr semantics)."""
    return repr(float(x))


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename (never a torn file).

    The text is encoded once, as UTF-8; returns the sha256 of the bytes
    written, so no caller reads a file back to hash it.
    """
    data = text.encode()
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return hashlib.sha256(data).hexdigest()

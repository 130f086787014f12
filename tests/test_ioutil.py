"""Atomic writes, and repr_csv against Python's repr, value by value."""

import hashlib
import os
import stat

import numpy as np
import pytest

import lapbasis as lb
from lapbasis.ioutil import atomic_write_text, id_words, repr_csv


def reprs(x):
    """The reference: one repr per value, each followed by a newline."""
    return "".join(repr(v) + "\n" for v in x.tolist()).encode()


def column(x):
    """repr_csv of x as one table of one column."""
    x = np.asarray(x, dtype=float)
    (data,) = repr_csv(x.reshape(1, -1, 1))
    return data


def with_neighbours(x):
    """x, both nextafter neighbours of each value (the largest double
    has inf above it), and their negatives."""
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def test_random_bit_patterns():
    # every exponent field and both signs, zero, subnormal, inf and nan
    # included: 10^6 uniform 64-bit patterns
    bits = np.random.default_rng(2020).integers(
        0, np.iinfo(np.uint64).max, 10 ** 6, dtype=np.uint64, endpoint=True)
    x = bits.view(float)
    assert column(x) == reprs(x)


def test_powers_of_two_and_ten():
    # powers of 2 take Schubfach's irregular branch (the gap below is
    # half the gap above); 5e-324 and the largest double are the ends
    x = with_neighbours(np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [float(f"1e{e}") for e in range(-323, 309)],
        [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]]))
    assert column(x) == reprs(x)


def test_integers_and_ties():
    # integers around 2^53, which Schubfach's own fast path would take,
    # and odd multiples of 1/4 below 2^51, which lie halfway between two
    # 17-digit decimals (the even one is repr's)
    around = np.arange(-3000, 3000)
    x = np.concatenate([
        (2 ** 53 + around).astype(float), (10 ** 15 + around).astype(float),
        around.astype(float), np.arange(1, 10 ** 6, 997, dtype=float),
        (2 ** 52 + 2 * around[around > 0] + 1) / 4.0])
    assert column(x) == reprs(x)


def test_exponent_switches():
    # repr writes an exponent below 1e-4 and from 1e16 up
    x = with_neighbours(np.array([1e-4, 1e-5, 1e15, 1e16, 1e17,
                                  9.999999999999999e-05, 9999999999999998.0,
                                  0.00012345, 1.2345678901234567e16]))
    assert column(x) == reprs(x)


def test_exponents_and_specials():
    # every decimal exponent, 3-digit ones included; subnormals
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.uniform(1, 10, 20000) * 10.0 ** rng.integers(-320, 308, 20000),
        rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(float),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5e-310]])
    assert column(x) == reprs(x)


def test_short_decimals():
    # values written with few digits, at every decimal point position
    rng = np.random.default_rng(6)
    x = rng.integers(1, 10 ** 6, 50000) / 10.0 ** rng.integers(-25, 25, 50000)
    assert column(x) == reprs(x)


@pytest.mark.parametrize("ids", [False, True, "words"])
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 7, 1), (2, 5, 4),
                                   (1, 30000, 1), (1, 200, 90)])
def test_tables(shape, ids):
    # rows "i," (with ids), values joined by ",", "\n"; passes of whole
    # rows may span tables or split one
    rng = np.random.default_rng(sum(shape))
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    want = ["".join((f"{i}," if ids else "")
                    + ",".join(repr(v) for v in row) + "\n"
                    for i, row in enumerate(table)).encode()
            for table in X.tolist()]
    if ids == "words":  # the id words built once, as a caller passes them
        ids = id_words(shape[1])
    assert repr_csv(X, ids=ids) == want


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    """The process umask set to the parameter for the test, then restored."""
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def test_atomic_write_honours_umask(tmp_path, umask):
    # a new file and a replaced one both get a plain open's mode, and no
    # temp file is left behind
    path = tmp_path / "out.csv"
    for text in ("a,b\n", b"c,d\n"):
        digest = atomic_write_text(path, text)
        data = text.encode() if isinstance(text, str) else text
        assert path.read_bytes() == data
        assert digest == hashlib.sha256(data).hexdigest()
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    lb.save_off(lb.icosphere(0), tmp_path / "m.off")
    assert stat.S_IMODE((tmp_path / "m.off").stat().st_mode) == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.off", "out.csv"]

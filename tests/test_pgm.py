import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakafit import pgm


def test_pgm_round_trip(tmp_path):
    img = np.arange(12, dtype=float).reshape(3, 4) * 20.0
    path = tmp_path / "a.pgm"
    pgm.write_pgm(path, img)
    back = pgm.read_image(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, img)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 50, 100, 255]))
    img = pgm.read_image(path)
    assert img.shape == (2, 2)
    assert img[1, 1] == 255.0


# The byte-at-a-time header lexer that the regular expression replaced.
def tokenize_reference(data):
    """Yield header tokens, skipping '#' comments; returns (tokens, offset)."""
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ValueError("truncated PGM header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    # exactly one whitespace byte separates the header from the raster
    return tokens, i + 1


def tokenize_one_match(data):
    """`pgm._HEADER`'s four tokens and the raster offset, in the reference's form."""
    header = pgm._HEADER.match(data)
    if header is None:
        raise ValueError("truncated PGM header")
    return list(header.groups()), header.end() + 1


def lex(tokenize, data):
    try:
        return tokenize(data)
    except ValueError as exc:
        return "ValueError", str(exc)


_COMMENT_TEXT = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b""))
_HEADER_PIECE = st.one_of(
    st.just(b"P5"),
    st.integers(0, 99999).map(lambda n: b"%d" % n),
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
    st.just(b"#"),
    _COMMENT_TEXT,
    _COMMENT_TEXT.map(lambda c: c + b"\n"),
    st.binary(min_size=1, max_size=4),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(_HEADER_PIECE, max_size=12).map(b"".join))
@example(b"P5 1 2 #55")  # a comment that ends the data holds no token
@example(b"P5\r\n# two regions\n64\t64 # w h\n255\n\x00")
def test_header_lexer_matches_byte_loop_reference(data):
    assert lex(tokenize_one_match, data) == lex(tokenize_reference, data)


@pytest.mark.parametrize(
    "name, data, message",
    [
        ("h.pgm", b"P5 2", "truncated PGM header"),
        ("x.txt", b"1 2\n0.5 x\n", "could not convert string to float: 'x'"),
        # int() converts at most 4,300 digits
        ("w.pgm", b"P5 " + b"1" * 5000 + b" 2 255\n" + bytes(40),
         "header field of 5000 digits is too large"),
        ("r.txt", b"1" * 5000 + b" 2\n", "header field of 5000 digits is too large"),
        ("m.pgm", b"P5 2 2 " + b"0" * 4300 + b"1\n" + bytes(4),
         "header field of 4301 digits is too large"),
        ("c.txt", b"1 " + b"9" * 4301 + b"\n", "header field of 4301 digits is too large"),
    ],
    ids=["pgm_truncated_header", "matrix_not_a_number", "pgm_huge_width", "matrix_huge_rows",
         "pgm_maxval_past_digit_limit", "matrix_cols_past_digit_limit"],
)
def test_refusals_name_the_file(tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        pgm.read_image(path)


def test_pgm_rejects_bad_magic():
    # read_image hands bytes that do not start with P5 to the matrix parser
    with pytest.raises(ValueError, match=re.escape("not a binary PGM (magic b'P2')")):
        pgm._pgm(b"P2\n2 2\n255\n0 1 2 3\n")


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ValueError):
        pgm.read_image(path)


def test_pgm_rejects_16_bit(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
    with pytest.raises(ValueError):
        pgm.read_image(path)


@pytest.mark.parametrize(
    "header", [b"P5 ab 2 255", b"P5 +2 1_0 255", b"P5 2 2 \xd9\xa3", b"P5 2 -2 255", b"P5 0x2 2 255"]
)
def test_pgm_header_fields_are_decimal_digits_only(tmp_path, header):
    # int() would take a sign, underscores and non-ASCII digits, or fail
    # with a message that names no file
    path = tmp_path / "h.pgm"
    path.write_bytes(header + b"\n" + bytes(40))
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad PGM header")):
        pgm.read_image(path)


def test_pgm_rejects_raster_byte_above_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 255]))
    with pytest.raises(ValueError, match=re.escape(f"{path}: PGM raster byte 255 above maxval 100")):
        pgm.read_image(path)
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 100]))
    assert np.array_equal(pgm.read_image(path), [[0.0, 100.0]])


def test_write_pgm_rejects_out_of_range(tmp_path):
    for image in (np.array([[300.0]]), np.array([[0.0, np.nan]])):
        with pytest.raises(ValueError):
            pgm.write_pgm(tmp_path / "x.pgm", image)
    assert not (tmp_path / "x.pgm").exists()


_NOT_2D = "must be a non-empty 2-D array"


@pytest.mark.parametrize(
    "array, message",
    [
        *((np.ones(shape), _NOT_2D) for shape in [(0, 3), (3, 0), (0, 0), (3,), (2, 2, 2)]),
        # neither format holds these values: a cast would drop an imaginary
        # part or parse a string, and numpy cannot convert the int to a float
        (np.array([[1 + 2j]]), "must be real numbers, got complex128"),
        (np.array([["1", "2"]]), "must be real numbers, got <U1"),
        ([[10**400, 1.0]], "must be real numbers, got object"),
        ([[1.0, 2.0], [3.0]], "must be real numbers: setting an array element with a sequence. "
                              "The requested array has an inhomogeneous shape after 1 dimensions. "
                              "The detected shape was (2,) + inhomogeneous part."),
    ],
    ids=["0x3", "3x0", "0x0", "1-D", "3-D", "complex", "str", "int_beyond_float", "ragged"],
)
@pytest.mark.parametrize("write, name", [(pgm.write_pgm, "image"), (pgm.write_matrix, "array")],
                         ids=["write_pgm", "write_matrix"])
def test_writers_refuse_an_array_that_is_empty_not_2d_or_not_real(tmp_path, write, name, array,
                                                                    message):
    # refused by name before the file is opened
    path = tmp_path / "x"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
        write(path, array)
    assert not path.exists()


def test_matrix_round_trip(tmp_path):
    arr = np.array([[0.5, 1.25], [3.0, 0.0078125]])
    path = tmp_path / "m.txt"
    pgm.write_matrix(path, arr)
    back = pgm.read_image(path)
    assert np.allclose(back, arr, rtol=1e-11)
    assert back.shape == (2, 2)


def test_matrix_header_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 2 3 4\n")
    with pytest.raises(ValueError):
        pgm.read_image(path)


@pytest.mark.parametrize("header", ["-1 0", "0 3", "2 x"])
def test_matrix_rejects_dimensions_below_one_or_not_integers(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad matrix dimensions {header}")):
        pgm.read_image(path)


def test_matrix_rejects_non_ascii_bytes(tmp_path):
    path = tmp_path / "u.txt"
    path.write_bytes("1 2\n0.5 \u00bd\n".encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: not ASCII text")):
        pgm.read_image(path)
    # the parser sees bytes only; the path comes from read_image
    with pytest.raises(ValueError, match="^not ASCII text$"):
        pgm._matrix(path.read_bytes())


def test_read_image_dispatch(tmp_path):
    mat = tmp_path / "img.txt"
    pgm.write_matrix(mat, np.ones((2, 2)))
    assert pgm.read_image(mat).shape == (2, 2)
    binary = tmp_path / "img.pgm"
    pgm.write_pgm(binary, np.zeros((2, 3)))
    assert pgm.read_image(binary).shape == (2, 3)


def test_read_image_is_the_one_reader():
    public = {name for name, value in vars(pgm).items()
              if callable(value) and not name.startswith("_") and value.__module__ == pgm.__name__}
    assert public == {"read_image", "write_pgm", "write_matrix", "labels_to_gray"}


def test_read_image_opens_the_file_once(tmp_path, monkeypatch):
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for name, write, image in (("i.pgm", pgm.write_pgm, np.zeros((2, 3))),
                               ("i.txt", pgm.write_matrix, np.ones((2, 3)))):
        path = tmp_path / name
        write(path, image)
        opened.clear()
        assert np.array_equal(pgm.read_image(path), image)
        assert opened == [path], name


def test_labels_to_gray():
    lab = np.array([[0, 1], [1, 0]])
    out = pgm.labels_to_gray(lab, 2)
    assert np.array_equal(out, lab * 255)
    out3 = pgm.labels_to_gray(np.array([[0, 1, 2]]), 3)
    assert np.array_equal(out3, np.array([[0, 127, 254]]))


def test_labels_to_gray_refuses_more_classes_than_gray_levels():
    labels = np.array([[0, 128, 255]])
    assert np.array_equal(pgm.labels_to_gray(labels, 256), labels)
    with pytest.raises(ValueError, match="n_classes must be <= 256"):
        pgm.labels_to_gray(np.array([[0, 256]]), 257)


@pytest.mark.parametrize(
    "arr",
    [
        np.array([[0, 1, 2], [7, -3, 123456789012345]], dtype=np.intp),
        np.array([[1e-300, 1e300, -2.5], [123456789012.0, -0.1234567890123, 0.0]]),
        np.array([[5e-324, -1e-5, 1.0 / 3.0], [-0.0, 2.0**53 + 2, 299792458.0]]),
        np.array([[True, False], [False, True]]),
    ],
    ids=["intp", "float", "float_edges", "bool"],
)
def test_write_matrix_bytes_match_numpy_scalar_formatting(tmp_path, arr):
    path = tmp_path / "m.txt"
    pgm.write_matrix(path, arr)
    want = f"{arr.shape[0]} {arr.shape[1]}\n" + "".join(
        " ".join(format(v, ".12g") for v in row) + "\n" for row in arr
    )
    assert path.read_bytes() == want.encode("ascii")


def savetxt_matrix(arr):
    """The text matrix format as `write_matrix` wrote it through np.savetxt."""
    fh = io.StringIO()
    fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
    np.savetxt(fh, arr, fmt="%.12g")
    return fh.getvalue().encode("ascii")


# values whose 13th significant digit is a 5 or that sit next to one, so
# "%.12g" has to round them
ROUND_OFF = [0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 0.5 + 2.0**-40, 1.0000000000005, 9.9999999999995,
             999999999999.5, 123456789012.5, -2.5e-13, 1.23456789012345e-300]
SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e12, -1e12, 1e-300, 5e-324,
            1.7976931348623157e308]


@pytest.mark.parametrize(
    "arr",
    [
        np.random.default_rng(1).integers(0, 2, (37, 23)),
        np.random.default_rng(2).integers(0, 5, (9, 64)).astype(np.intp),
        np.random.default_rng(3).integers(0, 3, (1, 50)).astype(np.int8),
        np.zeros((4, 1), dtype=np.int64),
        np.array([ROUND_OFF, SPECIALS[:10]]),
        np.random.default_rng(4).choice(ROUND_OFF + SPECIALS, (17, 19)),
        np.random.default_rng(5).normal(0.0, 1e6, (8, 8)),
        np.random.default_rng(6).normal(0.0, 1e6, (3, 5)).astype(np.float32),
        np.array([ROUND_OFF[:5], [1.0 / 3.0, -0.0, 1e-320, np.inf, 2.0**70]], dtype=np.longdouble),
    ],
    ids=["labels_k2", "labels_k5", "int8_row", "int_column", "specials", "mixed", "normal",
         "float32", "longdouble"],
)
def test_write_matrix_matches_savetxt(tmp_path, arr):
    path = tmp_path / "m.txt"
    pgm.write_matrix(path, arr)
    assert path.read_bytes() == savetxt_matrix(arr)


_FLOAT_VALUES = st.one_of(st.floats(), st.sampled_from(ROUND_OFF + SPECIALS))
_FLOAT_MATRICES = st.integers(1, 6).flatmap(
    lambda cols: st.lists(_FLOAT_VALUES, min_size=cols, max_size=6 * cols).map(
        lambda v: np.array(v[: len(v) // cols * cols]).reshape(-1, cols)
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_FLOAT_MATRICES)
def test_write_matrix_matches_savetxt_on_any_floats(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("m") / "m.txt"
    pgm.write_matrix(path, arr)
    assert path.read_bytes() == savetxt_matrix(arr)

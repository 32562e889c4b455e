"""Grayscale image I/O: binary PGM (P5, 8-bit) and a plain-text matrix format.

`read_image` is the one reader: it reads the file once and parses its
bytes as a PGM where they start with `P5`, else as a text matrix. Every
refusal of the bytes is a ValueError that starts with the path. The
writers refuse an empty array, or one that is not 2-D, before they open
their file: neither format holds an image without pixels. They take
bools, integers and floats, and refuse any other array by name, a complex
one included: a cast would drop its imaginary part.

A PGM header is four tokens: magic, width, height and maxval. A token is a
run of bytes that are neither ASCII whitespace nor '#'. Before each token
come any number of whitespace bytes and comments; a comment runs from '#'
to the next newline or to the end of the data. Exactly one whitespace byte
after maxval separates the header from the raster, whose bytes are at most
maxval.

The text format is ASCII: a `rows cols` header of two decimal integers >= 1
followed by whitespace-separated reals in row-major order; `write_matrix`
writes one row per line with 12 significant digits, byte for byte as
`np.savetxt(fmt="%.12g")` would.
"""

import re

import numpy as np

from .errors import _integer, _refusals_naming


# The four header tokens, each after a gap of whitespace bytes and comments.
# The gap before each token after the first holds at least one of them, so
# no token can split in two.
_HEADER = re.compile(
    rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)" + 3 * rb"(?:\s|#[^\n]*(?:\n|\Z))+([^\s#]+)"
)


def _decimal(token):
    """The value of a header token made of ASCII decimal digits only (str or
    bytes), else None: no sign, no underscore, no space. A token of more
    digits than int() converts (4,300 by default) is refused."""
    if not token.isdigit():
        return None
    try:
        return int(token)
    except ValueError:  # the digit limit: nothing else fails on ASCII digits
        raise ValueError(f"header field of {len(token)} digits is too large") from None


def _pgm(data):
    """The bytes of an 8-bit binary PGM as a float64 (height, width) array."""
    header = _HEADER.match(data)
    if header is None:
        raise ValueError("truncated PGM header")
    magic, *tokens = header.groups()
    if magic != b"P5":
        raise ValueError(f"not a binary PGM (magic {magic!r})")
    width, height, maxval = fields = [_decimal(t) for t in tokens]
    if None in fields:
        raise ValueError(
            f"bad PGM header {tokens}: width, height and maxval must be decimal digits"
        )
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if not (0 < maxval < 256):
        raise ValueError(f"only 8-bit PGM supported (maxval {maxval})")
    # exactly one whitespace byte separates the header from the raster
    raster = data[header.end() + 1 : header.end() + 1 + width * height]
    if len(raster) != width * height:
        raise ValueError("truncated PGM raster")
    pixels = np.frombuffer(raster, dtype=np.uint8)
    if pixels.max() > maxval:
        raise ValueError(f"PGM raster byte {pixels.max()} above maxval {maxval}")
    return pixels.astype(float).reshape(height, width)


def _pixels(array, name):
    """array as an ndarray; a ValueError naming it unless it is a non-empty
    2-D array of bools, integers or floats, worded as `_float_array` words
    its refusals."""
    try:
        arr = np.asarray(array)
    except ValueError as exc:  # a ragged row; numpy's message names no argument
        raise ValueError(f"{name} must be real numbers: {exc}") from None
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got {arr.dtype}")
    return arr


def write_pgm(path, image):
    """Write a (height, width) array of values in [0, 255] as binary PGM."""
    arr = _pixels(image, "image")
    if not (arr.min() >= 0 and arr.max() <= 255):
        raise ValueError("pixel values must be finite and lie in [0, 255]")
    data = np.rint(arr).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + data.tobytes())


def labels_to_gray(labels, n_classes):
    """Scale a label field to [0, 255] by label * floor(255 / (K-1)), for
    2 <= K <= 256: more classes than gray levels cannot be told apart."""
    return np.asarray(labels) * (255 // (_integer(n_classes, "n_classes", 2, 256) - 1))


def _matrix(data):
    """The bytes of the text matrix format as a float64 (rows, cols) array."""
    try:
        tokens = data.decode("ascii").split()
    except UnicodeDecodeError:
        raise ValueError("not ASCII text") from None
    if len(tokens) < 2:
        raise ValueError("missing 'rows cols' header")
    rows, cols = (_decimal(t) or 0 for t in tokens[:2])
    if rows < 1 or cols < 1:
        raise ValueError(f"bad matrix dimensions {tokens[0]} {tokens[1]}")
    values = np.array([float(t) for t in tokens[2:]], dtype=float)
    if values.size != rows * cols:
        raise ValueError(f"expected {rows * cols} values, found {values.size}")
    return values.reshape(rows, cols)


def write_matrix(path, array):
    """Write a 2-D array in the text matrix format (12 significant digits)."""
    arr = _pixels(array, "array")
    if arr.itemsize > 8:  # a long double, which "%.12g" formats as the float64 it rounds to
        arr = arr.astype(float)
    # Each distinct value is formatted once, as np.savetxt(fmt="%.12g") would
    # format it, and the rows are joined through the inverse index. Values
    # are told apart by their bits, so -0.0 and 0.0 keep their own texts.
    bits, inverse = np.unique(arr.view(f"u{arr.itemsize}"), return_inverse=True)
    texts = np.array(["%.12g" % v for v in bits.view(arr.dtype).tolist()], dtype=object)
    rows = texts[inverse.reshape(arr.shape)].tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        fh.writelines(" ".join(row) + "\n" for row in rows)


def read_image(path):
    """Read an image file once: binary PGM where its bytes start with `P5`,
    else the text matrix format. Every refusal names the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    with _refusals_naming(path):
        return _pgm(data) if data.startswith(b"P5") else _matrix(data)

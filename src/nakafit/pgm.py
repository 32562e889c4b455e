"""Grayscale image I/O: binary PGM (P5, 8-bit) and a plain-text matrix format.

The text format is a `rows cols` header line followed by whitespace-
separated reals in row-major order.
"""

import numpy as np


def _tokenize_pgm_header(data):
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


def read_pgm(path):
    """Read an 8-bit binary PGM into a float64 (height, width) array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _tokenize_pgm_header(data)
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad PGM dimensions {width}x{height}")
    if not (0 < maxval < 256):
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    raster = data[offset : offset + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: truncated PGM raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(float)
    return pixels.reshape(height, width)


def write_pgm(path, image):
    """Write a (height, width) array of values in [0, 255] as binary PGM."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError("image must be 2-D")
    if not (arr.min() >= 0 and arr.max() <= 255):
        raise ValueError("pixel values must be finite and lie in [0, 255]")
    data = np.rint(arr).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + data.tobytes())


def labels_to_gray(labels, n_classes):
    """Scale a label field to [0, 255] by label * floor(255 / (K-1))."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    return np.asarray(labels) * (255 // (n_classes - 1))


def read_matrix(path):
    """Read the text matrix format into a float64 (rows, cols) array."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    values = np.array([float(t) for t in tokens[2:]], dtype=float)
    if values.size != rows * cols:
        raise ValueError(
            f"{path}: expected {rows * cols} values, found {values.size}"
        )
    return values.reshape(rows, cols)


def write_matrix(path, array):
    """Write a 2-D array in the text matrix format (12 significant digits)."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError("array must be 2-D")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for row in arr:
            fh.write(" ".join(format(v, ".12g") for v in row) + "\n")


def read_image(path):
    """Load an image, auto-detecting binary PGM vs the text matrix format."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        return read_pgm(path)
    return read_matrix(path)

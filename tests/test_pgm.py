import numpy as np
import pytest

from nakafit import pgm


def test_pgm_round_trip(tmp_path):
    img = np.arange(12, dtype=float).reshape(3, 4) * 20.0
    path = tmp_path / "a.pgm"
    pgm.write_pgm(path, img)
    back = pgm.read_pgm(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, img)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 50, 100, 255]))
    img = pgm.read_pgm(path)
    assert img.shape == (2, 2)
    assert img[1, 1] == 255.0


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ValueError):
        pgm.read_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ValueError):
        pgm.read_pgm(path)


def test_pgm_rejects_16_bit(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
    with pytest.raises(ValueError):
        pgm.read_pgm(path)


def test_write_pgm_rejects_out_of_range(tmp_path):
    for image in (np.array([[300.0]]), np.array([[0.0, np.nan]])):
        with pytest.raises(ValueError):
            pgm.write_pgm(tmp_path / "x.pgm", image)
    assert not (tmp_path / "x.pgm").exists()


def test_matrix_round_trip(tmp_path):
    arr = np.array([[0.5, 1.25], [3.0, 0.0078125]])
    path = tmp_path / "m.txt"
    pgm.write_matrix(path, arr)
    back = pgm.read_matrix(path)
    assert np.allclose(back, arr, rtol=1e-11)
    assert back.shape == (2, 2)


def test_matrix_header_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 2 3 4\n")
    with pytest.raises(ValueError):
        pgm.read_matrix(path)


def test_read_image_dispatch(tmp_path):
    mat = tmp_path / "img.txt"
    pgm.write_matrix(mat, np.ones((2, 2)))
    assert pgm.read_image(mat).shape == (2, 2)
    binary = tmp_path / "img.pgm"
    pgm.write_pgm(binary, np.zeros((2, 3)))
    assert pgm.read_image(binary).shape == (2, 3)


def test_labels_to_gray():
    lab = np.array([[0, 1], [1, 0]])
    out = pgm.labels_to_gray(lab, 2)
    assert np.array_equal(out, lab * 255)
    out3 = pgm.labels_to_gray(np.array([[0, 1, 2]]), 3)
    assert np.array_equal(out3, np.array([[0, 127, 254]]))

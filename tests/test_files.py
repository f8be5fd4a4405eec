import pytest

from pursuitlab.files import atomic_open


def test_atomic_open_publishes_whole_or_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    with atomic_open(path) as f:
        f.write("a,b\r\n1,2\n")
        assert not path.exists()
    assert path.read_bytes() == b"a,b\r\n1,2\n"  # newline="" writes line ends as given

    with pytest.raises(KeyError):
        with atomic_open(path) as f:
            f.write("partial")
            raise KeyError("interrupted")
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"a,b\r\n1,2\n"

    with atomic_open(path, "wb") as f:
        f.write(b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"

"""The in-tree build backend (``_build/repro_build.py``) builds an
installable wheel, an editable wheel and an sdist from this checkout."""

import base64
import csv
import hashlib
import importlib.util
import io
import os
import tarfile
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_backend():
    spec = importlib.util.spec_from_file_location(
        "repro_build", os.path.join(ROOT, "_build", "repro_build.py"))
    backend = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(backend)
    return backend


def read_wheel(path):
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def check_record(files, dist_info):
    rows = list(csv.reader(io.StringIO(
        files[f"{dist_info}/RECORD"].decode())))
    assert sorted(row[0] for row in rows) == sorted(files)
    for path, digest, size in rows:
        if path.endswith("RECORD"):
            continue
        expected = base64.urlsafe_b64encode(
            hashlib.sha256(files[path]).digest()).rstrip(b"=").decode()
        assert digest == f"sha256={expected}" and int(size) == len(
            files[path])


def test_wheel_holds_the_package_and_its_metadata(tmp_path):
    name = load_backend().build_wheel(str(tmp_path))
    assert name == "repro-1.0.0-py3-none-any.whl"
    files = read_wheel(tmp_path / name)
    dist_info = "repro-1.0.0.dist-info"
    assert "repro/__init__.py" in files
    assert "repro/groups/protocol.py" in files
    assert not any("__pycache__" in path for path in files)
    metadata = files[f"{dist_info}/METADATA"].decode()
    assert "Name: repro\n" in metadata and "Version: 1.0.0\n" in metadata
    assert 'Requires-Dist: pytest; extra == "test"' in metadata
    assert files[f"{dist_info}/entry_points.txt"].decode() == (
        "[console_scripts]\nrepro-experiments = repro.cli:main\n")
    check_record(files, dist_info)


def test_editable_wheel_points_at_the_source_tree(tmp_path):
    name = load_backend().build_editable(str(tmp_path))
    files = read_wheel(tmp_path / name)
    pth = files["__editable__.repro-1.0.0.pth"].decode()
    assert pth.strip() == os.path.join(ROOT, "src")
    check_record(files, "repro-1.0.0.dist-info")


def test_sdist_holds_what_a_wheel_is_built_from(tmp_path):
    name = load_backend().build_sdist(str(tmp_path))
    with tarfile.open(tmp_path / name) as archive:
        names = archive.getnames()
    assert {"repro-1.0.0/pyproject.toml", "repro-1.0.0/README.md",
            "repro-1.0.0/PKG-INFO", "repro-1.0.0/_build/repro_build.py",
            "repro-1.0.0/src/repro/__init__.py"} <= set(names)

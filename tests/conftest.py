import json

import numpy as np
import pytest

from chevalley.coxeter import build_root_system, coxeter_type, enumerate_strata
from chevalley.invariants import _PACKAGE_DATA, basic_invariants, basis_content_hash


@pytest.fixture(scope="session")
def rs_cache():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_root_system(coxeter_type(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def basis_cache():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = basic_invariants(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def strata_cache(rs_cache):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = enumerate_strata(rs_cache(name))
        return cache[name]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture(params=["missing-key", "bad-coefficient", "json-list"])
def malformed_h3(request, tmp_path):
    """The shipped H3 data file, written to tmp_path/H3.json in a malformed
    shape: a term without its "b" part or with the coefficient "x/y", each
    under a matching hash, or the document wrapped in a JSON list."""
    doc = json.loads((_PACKAGE_DATA / "H3.json").read_text())
    term = doc["polys"][1]["terms"][0]
    if request.param == "missing-key":
        del term["b"]
    elif request.param == "bad-coefficient":
        term["a"] = "x/y"
    if request.param == "json-list":
        doc = [doc]
    else:
        doc["sha256"] = basis_content_hash(doc)
    path = tmp_path / "H3.json"
    path.write_text(json.dumps(doc))
    return path

import pytest

from tseitinkit import families as fam


@pytest.fixture(params=fam.desk(), ids=lambda p: p[0])
def bench_graph(request):
    return request.param

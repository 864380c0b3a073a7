"""The docstring examples of the numeric modules run and print what they
show."""

import doctest

import pytest

from qsix import _kernels_py, qcore, series


@pytest.mark.parametrize("module", [qcore, series, _kernels_py],
                         ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0

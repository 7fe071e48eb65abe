import pytest

from fond.seeding import subseed


def test_subseed_takes_only_integer_and_text_parts():
    # a bool is an int to Python, and a float would be truncated
    with pytest.raises(TypeError, match="bool"):
        subseed(True)
    with pytest.raises(TypeError, match="float"):
        subseed(1.5)

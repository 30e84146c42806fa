import pytest

from fctp.errors import FctpError
from fctp.generators import generate
from fctp.model import validate_instance


def test_generate_checks_options():
    with pytest.raises(FctpError, match="'max_supply' must be an integer >= 1, got 0"):
        generate("pfct-s", 2, 3, 1, max_supply=0)
    with pytest.raises(FctpError, match="family 'fct'"):
        generate("fct", 2, 3, 1, forbid_probability=0.5)
    assert validate_instance(generate("pfct-s", 2, 3, 1, max_supply=1)) is None

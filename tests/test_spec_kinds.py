"""Seminorm and submodule specs refuse a field kind other than ``equal``
and ``mixed`` when they are built, with the text ``parse_series`` uses."""

import pytest

from tdlf import ParseError, SeminormSpec, SeqSpec, SubmoduleSpec


@pytest.mark.parametrize("spec", [SeminormSpec, SubmoduleSpec])
@pytest.mark.parametrize("kind", ["bogus", "Equal", "", None, 0])
def test_a_spec_refuses_an_unknown_field_kind(spec, kind):
    with pytest.raises(ParseError, match=rf"^field {kind!r} is not 'equal' or 'mixed'$"):
        spec(SeqSpec.delta(0, 0), kind)

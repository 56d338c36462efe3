from __future__ import annotations

import pytest

from spincg.util import decimal_text


def test_decimal_text_writes_every_digit_past_the_digit_cap(digit_cap):
    # 640 and 641 digits either side of the smallest cap CPython accepts
    numbers = [0, 7, -7, 10**639, -(10**640) + 1, 10**640, -(10**640), 3**5000,
               -(3**5000) + 1]
    digit_cap(0)
    expected = [str(n) for n in numbers]
    digit_cap(640)
    with pytest.raises(ValueError):
        str(10**640)
    assert list(map(decimal_text, numbers)) == expected

from __future__ import annotations

from spincg.util import decimal_writer


def test_decimal_writer_takes_str_up_to_the_digit_cap(digit_cap):
    digit_cap(640)  # the smallest cap CPython accepts
    assert decimal_writer(0) is str
    assert decimal_writer(-(10**640) + 1) is str  # 640 digits
    assert decimal_writer(10**640) is not str  # 641 digits
    numbers = [0, 7, -7, 10**639, 10**640, -(10**640), 3**5000, -(3**5000) + 1]
    big = decimal_writer(3**5000)
    digit_cap(0)
    expected = [str(n) for n in numbers]
    digit_cap(640)
    assert list(map(big, numbers)) == expected

"""Annotations resolve: ``typing.get_type_hints`` works on them."""

import typing

from repro.metrics import HandoverStats
from repro.node import Mote
from repro.sim import OneShotTimer


def test_annotations_resolve():
    hints = typing.get_type_hints(HandoverStats)
    assert hints["label_led_time"] == typing.Dict[str, float]
    assert typing.get_type_hints(Mote.oneshot)["return"] is OneShotTimer

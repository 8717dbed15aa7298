"""Transport: geographic routing, LRU leader tables, MTP, reliability."""

from .mtp import (DEFAULT_CHAIN_LIMIT, DEFAULT_LOOKUP_EXPIRY,
                  DEFAULT_PENDING_LIMIT, Invocation, MTP_KIND, MtpAgent,
                  NEGATIVE_TTL, PortHandler)
from .reliability import (ConnectionKey, DeadLetter, DeadLetterQueue,
                          DedupTable, MTP_ACK_KIND, MTP_DEDUP_KIND,
                          PendingTransmission, ReliabilityConfig,
                          RELIABILITY_STREAM, SequenceCounters)
from .routing import DEFAULT_TTL, GEO_KIND, GeoRouter
from .tables import LastKnownLeaderTable, LeaderPointer, NegativeCache

__all__ = [
    "ConnectionKey",
    "DEFAULT_CHAIN_LIMIT",
    "DEFAULT_LOOKUP_EXPIRY",
    "DEFAULT_PENDING_LIMIT",
    "DEFAULT_TTL",
    "DeadLetter",
    "DeadLetterQueue",
    "DedupTable",
    "GEO_KIND",
    "GeoRouter",
    "Invocation",
    "LastKnownLeaderTable",
    "LeaderPointer",
    "MTP_ACK_KIND",
    "MTP_DEDUP_KIND",
    "MTP_KIND",
    "MtpAgent",
    "NEGATIVE_TTL",
    "NegativeCache",
    "PendingTransmission",
    "PortHandler",
    "ReliabilityConfig",
    "RELIABILITY_STREAM",
    "SequenceCounters",
]

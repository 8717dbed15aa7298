"""Transport: geographic routing, LRU leader tables, MTP, reliability."""

from .mtp import (DEFAULT_CHAIN_LIMIT, Invocation, MTP_KIND, MtpAgent,
                  PENDING_LIMIT, PortHandler)
from .reliability import (Ack, ConnectionKey, DedupShare, DedupTable,
                          MTP_ACK_KIND, MTP_DEDUP_KIND, PendingTransmission,
                          ReliabilityConfig, RELIABILITY_STREAM)
from .routing import DEFAULT_TTL, GEO_KIND, GeoRouter, Packet
from .tables import (LEADER_TABLE_CAPACITY, LastKnownLeaderTable,
                     LeaderPointer, NEGATIVE_CAPACITY, NEGATIVE_TTL,
                     NegativeCache)

__all__ = [
    "Ack",
    "ConnectionKey",
    "DEFAULT_CHAIN_LIMIT",
    "DEFAULT_TTL",
    "DedupShare",
    "DedupTable",
    "GEO_KIND",
    "GeoRouter",
    "Invocation",
    "LEADER_TABLE_CAPACITY",
    "LastKnownLeaderTable",
    "LeaderPointer",
    "MTP_ACK_KIND",
    "MTP_DEDUP_KIND",
    "MTP_KIND",
    "MtpAgent",
    "NEGATIVE_CAPACITY",
    "NEGATIVE_TTL",
    "NegativeCache",
    "PENDING_LIMIT",
    "Packet",
    "PendingTransmission",
    "PortHandler",
    "ReliabilityConfig",
    "RELIABILITY_STREAM",
]

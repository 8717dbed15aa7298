"""Object naming and directory services."""

from .directory import (DEFAULT_ENTRY_TTL, DEFAULT_LOOKUP_RETRIES,
                        DEFAULT_LOOKUP_TIMEOUT, DirectoryEntry,
                        DirectoryQuery, DirectoryResponse,
                        DirectoryService, QUERY_KIND, REGISTER_KIND,
                        REPLICATE_KIND, RESPONSE_KIND)
from .geohash import FieldBounds, hash_to_coordinate

__all__ = [
    "DEFAULT_ENTRY_TTL",
    "DEFAULT_LOOKUP_RETRIES",
    "DEFAULT_LOOKUP_TIMEOUT",
    "DirectoryEntry",
    "DirectoryQuery",
    "DirectoryResponse",
    "DirectoryService",
    "FieldBounds",
    "QUERY_KIND",
    "REGISTER_KIND",
    "REPLICATE_KIND",
    "RESPONSE_KIND",
    "hash_to_coordinate",
]

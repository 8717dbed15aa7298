"""Object naming and directory services."""

from .directory import (DEFAULT_LOOKUP_TIMEOUT, DirectoryEntry,
                        DirectoryQuery, DirectoryResponse,
                        DirectoryService, ENTRY_TTL, LOOKUP_RETRIES,
                        QUERY_KIND, REGISTER_KIND, REPLICATE_KIND,
                        RESPONSE_KIND)
from .geohash import FieldBounds, hash_to_coordinate

__all__ = [
    "DEFAULT_LOOKUP_TIMEOUT",
    "DirectoryEntry",
    "DirectoryQuery",
    "DirectoryResponse",
    "DirectoryService",
    "ENTRY_TTL",
    "FieldBounds",
    "LOOKUP_RETRIES",
    "QUERY_KIND",
    "REGISTER_KIND",
    "REPLICATE_KIND",
    "RESPONSE_KIND",
    "hash_to_coordinate",
]

"""ircmap: map author affiliations to countries and measure international collaboration.

The package enriches bibliographic records in two steps: fast gazetteer
matching of country names, abbreviations, and sub-national parts inside the
affiliation string, then a Wikidata lookup (via the English Wikipedia article
for the remaining text) for strings that carry no location words at all.
On top of the enriched mentions it computes international-collaboration
statistics: per-paper country sets, international/domestic ratios, per-year
series, and country-pair counts.
"""

from ircmap.gazetteer import Gazetteer, GazetteerError, build_gazetteer, default_data_dir
from ircmap.ingest import (
    AffiliationMention,
    BibRecord,
    Format,
    IngestError,
    NormalizedAffiliation,
    ParseReport,
    normalize_affiliation,
    parse_records,
    token_key,
)
from ircmap.metrics import IrcStats, PaperCountrySet, collapse_to_papers, compute_irc
from ircmap.prep import (
    DedupIndex,
    FosFilter,
    PrepStats,
    compute_fos_filter,
    dedup_overlap,
    filter_by_fos,
    filter_coauthored,
)
from ircmap.resolver import (
    Category,
    Resolution,
    match_step1,
    resolve,
    resolve_corpus,
)
from ircmap.wikidata import (
    CacheEntry,
    CacheStatus,
    CacheStore,
    EndpointRefused,
    LabelMap,
    Mode,
    RateLimiter,
    TransportError,
    WikidataClient,
    build_sparql_query,
)

__version__ = "0.1.0"

__all__ = [
    "AffiliationMention",
    "BibRecord",
    "CacheEntry",
    "CacheStatus",
    "CacheStore",
    "Category",
    "DedupIndex",
    "EndpointRefused",
    "Format",
    "FosFilter",
    "Gazetteer",
    "GazetteerError",
    "IngestError",
    "IrcStats",
    "LabelMap",
    "Mode",
    "NormalizedAffiliation",
    "PaperCountrySet",
    "ParseReport",
    "PrepStats",
    "RateLimiter",
    "Resolution",
    "TransportError",
    "WikidataClient",
    "build_gazetteer",
    "build_sparql_query",
    "collapse_to_papers",
    "compute_fos_filter",
    "compute_irc",
    "dedup_overlap",
    "default_data_dir",
    "filter_by_fos",
    "filter_coauthored",
    "match_step1",
    "normalize_affiliation",
    "parse_records",
    "resolve",
    "resolve_corpus",
    "token_key",
]

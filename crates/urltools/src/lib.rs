//! URL machinery for the `permadead` link-rot study.
//!
//! This crate provides everything the measurement pipeline needs to reason
//! about URLs without any network access:
//!
//! - [`Url`]: a small, strict parser for the absolute `http`/`https` URLs that
//!   appear as external references on Wikipedia ([`parse`]).
//! - Normalization rules that make distinct spellings of the same resource
//!   compare equal ([`mod@normalize`]).
//! - SURT (Sort-friendly URI Reordering Transform) keys, the canonical key
//!   format used by Wayback-style CDX indices ([`mod@surt`]).
//! - A Public Suffix List implementation for registrable-domain extraction
//!   ([`psl`]), used when grouping URLs per domain (paper Figure 3a).
//! - Edit-distance utilities used by the paper's typo analysis (§5.2)
//!   ([`editdist`]).
//! - Directory-prefix helpers used by the redirect-validation (§4.2) and
//!   spatial (§5.2) analyses ([`prefix`]).
//! - Query-string canonicalization used when hunting archived copies that
//!   differ only in parameter order (§5.2 implications) ([`query`]).
//! - FNV-1a, the stable hash every URL-keyed seeded draw and the snapshot
//!   checksum share, and [`IdTable`], the hash table of ids built on it
//!   ([`fnv`]).

pub mod editdist;
pub mod fnv;
pub mod normalize;
pub mod parse;
pub mod prefix;
pub mod psl;
pub mod query;
pub mod surt;

pub use editdist::{at_distance_one, bounded_levenshtein, levenshtein};
pub use fnv::{fnv1a, Fnv1a, IdTable};
pub use normalize::normalize;
pub use parse::{ParseError, Scheme, Url};
pub use prefix::{directory_prefix, in_same_directory, last_segment, replace_last_segment};
pub use psl::{registrable_domain, PublicSuffixList};
pub use query::{canonical_query, query_pairs, same_params_any_order};
pub use surt::{surt, surt_directory_prefix, surt_host, surt_host_prefix};

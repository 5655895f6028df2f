//! Interned columnar link storage and deterministic world snapshots.
//!
//! The paper's corpus is ~10k sampled links out of ~290k tagged URLs across
//! 180k articles — far beyond what per-link owned `String`s and
//! regenerate-on-every-invocation can sustain. This crate supplies the two
//! storage layers that make paper scale routine:
//!
//! - [`Interner`] + [`LinkTable`]: a global string arena with `u32` symbol
//!   ids and struct-of-arrays link tables. A 18k-link dataset stores each
//!   URL/article/tagger string exactly once; table rows are five integers.
//! - [`World`]: a complete generated world — live web, archive, and the
//!   study's link tables — with a versioned binary snapshot format
//!   ([`World::save`]/[`World::load`]). Snapshots are *deterministic*: the
//!   byte stream is a pure function of the world (all maps serialized in
//!   sorted order, integers fixed-width little-endian), so save → load →
//!   save is byte-identical, and a loaded world answers every fetch and
//!   archive query bit-identically to the freshly generated one.
//!
//! The snapshot format is specified in DESIGN.md ("World snapshot format").

pub mod codec;
pub mod intern;
pub mod tables;
pub mod world;

pub use codec::CodecError;
pub use intern::{Interner, Sym};
pub use tables::{LinkRow, LinkTable};
pub use world::{LoadError, RawLink, SectionCost, World, WorldMeta, FORMAT_VERSION, MAGIC};

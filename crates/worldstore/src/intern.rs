//! A global string interner: one arena, `u32` symbols.
//!
//! URLs, hostnames, article titles and tagger names repeat massively across
//! a link corpus (every link on an article repeats the title; every link on
//! a host repeats the host). Interning stores each distinct string once in a
//! contiguous arena and hands out a dense [`Sym`] — four bytes on the hot
//! path instead of a 24-byte `String` header plus a heap allocation.
//!
//! Symbols are allocated densely in first-intern order, which makes the
//! interner trivially serializable: write the strings in symbol order, and
//! on load each string re-interns to the same symbol.
//!
//! Each string is held once, in the arena: the symbol table is an
//! [`IdTable`] of symbols keyed by the FNV-1a hash of their strings, and a
//! probe compares against the arena.

use permadead_url::{fnv1a, IdTable};
use std::fmt;

/// A symbol: an index into the interner's offset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// Arena-backed string interner.
///
/// `resolve` is two array lookups (no hashing); `intern` hashes once and
/// appends on a miss. The arena never shrinks — symbols stay valid for the
/// interner's lifetime.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Every interned string, concatenated.
    arena: String,
    /// `ends[i]` = one-past-the-end offset of symbol `i`'s bytes in `arena`
    /// (its start is `ends[i-1]`, or 0 for symbol 0).
    ends: Vec<u32>,
    /// Symbols keyed by their strings' hashes, for dedup on intern.
    table: IdTable,
}

/// Symbol `i`'s bytes in `arena`.
fn slice<'a>(arena: &'a str, ends: &[u32], i: u32) -> Option<&'a str> {
    let end = *ends.get(i as usize)? as usize;
    let start = i
        .checked_sub(1)
        .map_or(0, |prev| ends[prev as usize] as usize);
    arena.get(start..end)
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// An interner that takes `n` distinct strings without rehashing its
    /// table or growing its offsets (a decoder's count).
    pub(crate) fn with_capacity(n: usize) -> Self {
        Interner {
            arena: String::new(),
            ends: Vec::with_capacity(n),
            table: IdTable::with_capacity(n),
        }
    }

    /// Intern `s`, returning its symbol (existing or freshly allocated).
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = fnv1a(s.as_bytes());
        if let Some(sym) = self.find(hash, s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.ends.len()).expect("interner full"));
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len()).expect("arena overflow");
        self.ends.push(end);
        let (arena, ends) = (&self.arena, &self.ends);
        self.table.insert(hash, sym.0, |i| {
            fnv1a(
                slice(arena, ends, i)
                    .expect("a stored symbol resolves")
                    .as_bytes(),
            )
        });
        sym
    }

    fn find(&self, hash: u64, s: &str) -> Option<Sym> {
        self.table
            .find(hash, |i| self.try_resolve(Sym(i)) == Some(s))
            .map(Sym)
    }

    /// The symbol for `s`, if it has ever been interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.find(fnv1a(s.as_bytes()), s)
    }

    /// Release the arena's and the offsets' spare capacity (after a load,
    /// when no more strings are coming).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// The string behind `sym`. Panics on a symbol from another interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.try_resolve(sym)
            .unwrap_or_else(|| panic!("symbol {} out of range ({} interned)", sym.0, self.len()))
    }

    /// Fallible [`Self::resolve`], for decoders reading symbols from
    /// untrusted bytes: a corrupted snapshot must surface a decode error,
    /// not an out-of-bounds panic.
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        slice(&self.arena, &self.ends, sym.0)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes in the arena (the corpus's distinct-string footprint).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Every interned string, in symbol order (the serialization order).
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|i| self.resolve(Sym(i as u32)))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_dedups() {
        let mut i = Interner::new();
        let a = i.intern("http://e.org/a");
        let b = i.intern("http://e.org/b");
        let a2 = i.intern("http://e.org/a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_returns_original() {
        let mut i = Interner::new();
        let s = i.intern("über-link");
        assert_eq!(i.resolve(s), "über-link");
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut i = Interner::new();
        let e = i.intern("");
        let x = i.intern("x");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.resolve(x), "x");
        assert_eq!(i.intern(""), e);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut i = Interner::new();
        for (n, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(i.intern(s), Sym(n as u32));
        }
        let all: Vec<&str> = i.iter().collect();
        assert_eq!(all, vec!["a", "b", "c"]);
    }

    #[test]
    fn get_finds_only_what_was_interned() {
        let mut i = Interner::new();
        assert_eq!(i.get(""), None, "an empty interner holds nothing");
        assert_eq!(i.get("x"), None);
        let x = i.intern("x");
        assert_eq!(i.get("x"), Some(x));
        assert_eq!(i.get(""), None, "the empty string is absent until interned");
        assert_eq!(i.get("xx"), None);
        let e = i.intern("");
        assert_eq!(i.get(""), Some(e));
        assert_eq!(i.len(), 2, "get interns nothing");
    }

    #[test]
    fn reinterning_after_growth_returns_the_first_symbols() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..5000).map(|n| format!("http://e.org/{n}")).collect();
        let syms: Vec<Sym> = names.iter().map(|s| i.intern(s)).collect();
        // the table grew many times over: every string still finds its symbol
        for (s, &sym) in names.iter().zip(&syms) {
            assert_eq!(i.intern(s), sym);
            assert_eq!(i.get(s), Some(sym));
            assert_eq!(i.resolve(sym), s);
        }
        assert_eq!(i.len(), names.len());
        assert_eq!(i.get("http://e.org/5000"), None);
    }

    #[test]
    fn a_presized_interner_interns_alike() {
        let mut sized = Interner::with_capacity(3);
        let mut grown = Interner::new();
        for s in ["b", "", "a", "b", ""] {
            assert_eq!(sized.intern(s), grown.intern(s));
        }
        sized.shrink_to_fit();
        assert_eq!(sized.iter().collect::<Vec<_>>(), ["b", "", "a"]);
        assert_eq!(
            sized.intern("c"),
            Sym(3),
            "interning goes on after a shrink"
        );
    }

    proptest! {
        /// intern → resolve is the identity, for every string in any batch,
        /// regardless of duplicates or interleaving.
        #[test]
        fn intern_resolve_identity(strings in proptest::collection::vec(".*", 0..40)) {
            let mut i = Interner::new();
            let syms: Vec<Sym> = strings.iter().map(|s| i.intern(s)).collect();
            for (s, sym) in strings.iter().zip(&syms) {
                prop_assert_eq!(i.resolve(*sym), s.as_str());
            }
            // symbols agree iff strings agree
            for (sa, a) in syms.iter().zip(&strings) {
                for (sb, b) in syms.iter().zip(&strings) {
                    prop_assert_eq!(sa == sb, a == b);
                }
            }
            // the arena holds each distinct string exactly once
            let distinct: std::collections::HashSet<&String> = strings.iter().collect();
            prop_assert_eq!(i.len(), distinct.len());
            prop_assert_eq!(i.arena_bytes(), distinct.iter().map(|s| s.len()).sum::<usize>());
        }

        /// Re-interning the iteration order reproduces identical symbols —
        /// the property the snapshot loader relies on.
        #[test]
        fn reintern_round_trip(strings in proptest::collection::vec(".*", 0..40)) {
            let mut a = Interner::new();
            for s in &strings {
                a.intern(s);
            }
            let mut b = Interner::new();
            for s in a.iter().map(str::to_string).collect::<Vec<_>>() {
                b.intern(&s);
            }
            prop_assert_eq!(a.len(), b.len());
            for n in 0..a.len() as u32 {
                prop_assert_eq!(a.resolve(Sym(n)), b.resolve(Sym(n)));
            }
        }
    }
}

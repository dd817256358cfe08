//! The LOLCODE type lattice.
//!
//! LOLCODE 1.2 is dynamically typed with five types; the paper's
//! `ITZ SRSLY A` extension pins a variable to one of them statically so
//! that the source-to-source compiler can emit native C types. Shared
//! (`WE HAS A`) variables must be statically typed because they live in
//! the symmetric heap at a fixed word-sized layout.

use std::fmt;

/// A LOLCODE value type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LolType {
    /// `NOOB` — the uninitialized/unit type.
    Noob,
    /// `TROOF` — boolean (`WIN` / `FAIL`).
    Troof,
    /// `NUMBR` — 64-bit signed integer.
    Numbr,
    /// `NUMBAR` — 64-bit IEEE float.
    Numbar,
    /// `YARN` — string.
    Yarn,
}

impl LolType {
    /// Keyword spelling (`NUMBR`, ...).
    pub fn keyword(self) -> &'static str {
        match self {
            LolType::Noob => "NOOB",
            LolType::Troof => "TROOF",
            LolType::Numbr => "NUMBR",
            LolType::Numbar => "NUMBAR",
            LolType::Yarn => "YARN",
        }
    }

    /// Plural keyword used in array declarations
    /// (`... ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32`).
    pub fn plural_keyword(self) -> &'static str {
        match self {
            LolType::Noob => "NOOBS",
            LolType::Troof => "TROOFS",
            LolType::Numbr => "NUMBRS",
            LolType::Numbar => "NUMBARS",
            LolType::Yarn => "YARNS",
        }
    }

    /// Parse a singular type keyword.
    pub fn from_keyword(kw: &str) -> Option<LolType> {
        Some(match kw {
            "NOOB" => LolType::Noob,
            "TROOF" => LolType::Troof,
            "NUMBR" => LolType::Numbr,
            "NUMBAR" => LolType::Numbar,
            "YARN" => LolType::Yarn,
            _ => return None,
        })
    }

    /// Parse a plural type keyword (array element type).
    pub fn from_plural_keyword(kw: &str) -> Option<LolType> {
        Some(match kw {
            "NOOBS" => LolType::Noob,
            "TROOFS" => LolType::Troof,
            "NUMBRS" => LolType::Numbr,
            "NUMBARS" => LolType::Numbar,
            "YARNS" => LolType::Yarn,
            _ => return None,
        })
    }

    /// Is this type representable as a single symmetric-heap word?
    ///
    /// `YARN` is not: the paper's shared data model (and OpenSHMEM's
    /// symmetric objects) covers numeric/boolean words; shared strings are
    /// rejected by semantic analysis.
    pub fn is_word_sized(self) -> bool {
        matches!(self, LolType::Troof | LolType::Numbr | LolType::Numbar)
    }
}

impl fmt::Display for LolType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for t in [LolType::Noob, LolType::Troof, LolType::Numbr, LolType::Numbar, LolType::Yarn] {
            assert_eq!(LolType::from_keyword(t.keyword()), Some(t));
            assert_eq!(LolType::from_plural_keyword(t.plural_keyword()), Some(t));
        }
    }

    #[test]
    fn unknown_keyword_is_none() {
        assert_eq!(LolType::from_keyword("CHEEZBURGER"), None);
        assert_eq!(LolType::from_plural_keyword("NUMBR"), None);
    }

    #[test]
    fn word_sized_types() {
        assert!(LolType::Numbr.is_word_sized());
        assert!(LolType::Numbar.is_word_sized());
        assert!(LolType::Troof.is_word_sized());
        assert!(!LolType::Yarn.is_word_sized());
        assert!(!LolType::Noob.is_word_sized());
    }
}

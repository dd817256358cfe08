//! Byte spans into a single LOLCODE source buffer, plus a [`SourceMap`]
//! that converts offsets back to 1-based line/column pairs for
//! diagnostics.

use std::fmt;

/// A half-open byte range `[lo, hi)` into the program source.
///
/// Spans are deliberately tiny (8 bytes) because every token, expression
/// and statement carries one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// Create a span from raw byte offsets.
    #[inline]
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "span lo {lo} > hi {hi}");
        Span { lo, hi }
    }

    /// The empty span used for synthesized nodes (e.g. by the pretty
    /// printer round-trip tests, which compare trees modulo spans).
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    /// Smallest span covering both `self` and `other`.
    #[inline]
    pub fn to(self, other: Span) -> Span {
        Span::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Length of the span in bytes.
    #[inline]
    pub fn len(self) -> u32 {
        self.hi - self.lo
    }

    /// True when the span covers no bytes.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// 1-based line/column position produced by [`SourceMap::lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineCol {
    pub line: u32,
    pub col: u32,
}

/// Maps byte offsets to line/column pairs and can excerpt source lines.
///
/// Built once per compilation from the raw source text.
#[derive(Debug, Clone)]
pub struct SourceMap {
    src: String,
    /// Byte offset of the start of every line (line_starts[0] == 0).
    line_starts: Vec<u32>,
}

impl SourceMap {
    /// Build a map over `src`.
    pub fn new(src: impl Into<String>) -> Self {
        let src = src.into();
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap { src, line_starts }
    }

    /// The underlying source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// Convert a byte offset into a 1-based line/column pair.
    pub fn lookup(&self, offset: u32) -> LineCol {
        let offset = offset.min(self.src.len() as u32);
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol { line: line_idx as u32 + 1, col: offset - self.line_starts[line_idx] + 1 }
    }

    /// The full text of the (1-based) line, without its newline.
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line as usize).saturating_sub(1);
        let start = *self.line_starts.get(idx).unwrap_or(&0) as usize;
        let end = self.line_starts.get(idx + 1).map(|&s| s as usize).unwrap_or(self.src.len());
        self.src[start..end].trim_end_matches(['\n', '\r'])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_and_len() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(b.to(a), Span::new(2, 9));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Span::DUMMY.is_empty());
    }

    #[test]
    fn lookup_first_line() {
        let sm = SourceMap::new("HAI 1.2\nKTHXBYE\n");
        assert_eq!(sm.lookup(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.lookup(4), LineCol { line: 1, col: 5 });
    }

    #[test]
    fn lookup_later_lines() {
        let sm = SourceMap::new("HAI 1.2\nVISIBLE 1\nKTHXBYE");
        assert_eq!(sm.lookup(8), LineCol { line: 2, col: 1 });
        assert_eq!(sm.lookup(18), LineCol { line: 3, col: 1 });
    }

    #[test]
    fn lookup_clamps_past_end() {
        let sm = SourceMap::new("HAI");
        let lc = sm.lookup(999);
        assert_eq!(lc.line, 1);
    }

    #[test]
    fn line_text_strips_newline() {
        let sm = SourceMap::new("HAI 1.2\r\nKTHXBYE\n");
        assert_eq!(sm.line_text(1), "HAI 1.2");
        assert_eq!(sm.line_text(2), "KTHXBYE");
    }

    #[test]
    fn empty_source() {
        let sm = SourceMap::new("");
        assert_eq!(sm.lookup(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.line_text(1), "");
    }
}

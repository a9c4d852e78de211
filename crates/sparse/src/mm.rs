//! Matrix Market I/O.
//!
//! Supports the subset of the format needed to ingest SuiteSparse matrices
//! for RCM: `matrix coordinate` with `pattern`, `real` or `integer` fields
//! and `general` or `symmetric` symmetry. Values are discarded when reading
//! into a pattern matrix; [`read_numeric`] keeps them.
//!
//! The readers stream. A byte scanner walks the input through one fixed
//! 64 KiB buffer and parses indices by hand; entries land in a buffer sized
//! once from the header's nnz, capped by what the input can hold (a quarter
//! of the file length for [`read_pattern_file`]), so a header that declares
//! more entries than the file holds costs nothing. Pattern entries then go
//! through one counting CSC build; a `symmetric` file stores each entry
//! once and is mirrored inside that build.
//!
//! Lines end in `\n`; a `\r` before it is whitespace, as are spaces, tabs,
//! vertical tabs and form feeds between tokens. Indices may carry a leading
//! `+`. Blank and `%` comment lines may appear anywhere after the banner,
//! and tokens after the ones an entry needs are ignored. A comment line may
//! be any length; any other line must fit in the 64 KiB buffer.

use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

use crate::csc::CscMatrix;
use crate::csr_num::CsrNumeric;
use crate::Vidx;

/// Errors raised by the Matrix Market parser.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file contents.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Size of the scanner's read buffer, and so the longest non-comment line
/// the readers accept.
const BUF_BYTES: usize = 1 << 16;

/// Entries reserved up front when the input's length is unknown; past this
/// the entry buffer grows as entries arrive.
const UNKNOWN_LEN_ENTRIES: usize = 1 << 20;

/// Bytes [`write_pattern`] formats before handing them to the writer.
const WRITE_CHUNK: usize = 1 << 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Field {
    Pattern,
    Real,
    Integer,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Symmetry {
    General,
    Symmetric,
}

struct Header {
    field: Field,
    symmetry: Symmetry,
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
}

/// Whitespace inside a line: ASCII whitespace other than `\n`.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// The whitespace-separated tokens of one line.
fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|&b| is_blank(b)).filter(|t| !t.is_empty())
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).trim().to_string()
}

/// A whole token as a decimal index: an optional `+`, then digits.
fn parse_uint(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then_some(())?;
        v.checked_mul(10)?.checked_add(d as u64)
    })
}

/// Parse an index starting at `line[*i]` (an optional `+`, then digits) and
/// move `*i` past it; `None` without digits or on overflow. `line` must
/// hold a `\n` at or after `*i`, which stops the scan.
#[inline]
fn parse_index(line: &[u8], i: &mut usize) -> Option<u64> {
    let mut k = *i + usize::from(line[*i] == b'+');
    let start = k;
    let mut v = 0u64;
    loop {
        let d = line[k].wrapping_sub(b'0');
        if d >= 10 {
            break;
        }
        v = v.checked_mul(10)?.checked_add(d as u64)?;
        k += 1;
    }
    if k == start {
        return None;
    }
    *i = k;
    Some(v)
}

/// The position just past the `\n` that ends the line containing `i`.
#[inline]
fn after_newline(lines: &[u8], i: usize) -> usize {
    i + lines[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(0, |k| k + 1)
}

/// Streams text through a fixed-size buffer and hands out whole lines:
/// `buf[pos..lines_end]` is the unread part, every line in it ending in
/// `\n`; `buf[lines_end..end]` is an unfinished line waiting for the next
/// read.
struct Scanner<R> {
    src: R,
    /// `BUF_BYTES` plus one byte to terminate an unterminated last line.
    buf: Box<[u8]>,
    pos: usize,
    lines_end: usize,
    end: usize,
    eof: bool,
}

impl<R: Read> Scanner<R> {
    fn new(src: R) -> Self {
        Scanner {
            src,
            buf: vec![0; BUF_BYTES + 1].into_boxed_slice(),
            pos: 0,
            lines_end: 0,
            end: 0,
            eof: false,
        }
    }

    /// The unread whole lines, each ending in `\n`; empty only at the end
    /// of the input. Mark what was read with [`Scanner::consume`].
    fn lines(&mut self) -> Result<&[u8], MmError> {
        if self.pos == self.lines_end {
            self.refill()?;
        }
        Ok(&self.buf[self.pos..self.lines_end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }

    /// The next line without its `\n`, or `None` at the end of the input.
    fn line(&mut self) -> Result<Option<&[u8]>, MmError> {
        let Some(k) = self.lines()?.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let start = self.pos;
        self.pos += k + 1;
        Ok(Some(&self.buf[start..start + k]))
    }

    /// Move the unfinished line to the front and read until the buffer
    /// holds a whole line or the input ends.
    fn refill(&mut self) -> Result<(), MmError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        // buf[..scanned] is known to hold no `\n`.
        let mut scanned = 0;
        loop {
            if let Some(k) = self.buf[scanned..self.end]
                .iter()
                .rposition(|&b| b == b'\n')
            {
                self.lines_end = scanned + k + 1;
                return Ok(());
            }
            scanned = self.end;
            if self.eof {
                if self.end > 0 {
                    self.buf[self.end] = b'\n';
                    self.end += 1;
                }
                self.lines_end = self.end;
                return Ok(());
            }
            if self.end == BUF_BYTES {
                self.skip_long_comment()?;
                scanned = 0;
                continue;
            }
            let n = self.read_at(self.end)?;
            self.end += n;
            self.eof = n == 0;
        }
    }

    /// The buffer holds one unfinished line: if it is a comment, drop it
    /// and keep what follows its `\n`; otherwise reject it.
    fn skip_long_comment(&mut self) -> Result<(), MmError> {
        if self.buf[..self.end].iter().find(|&&b| !is_blank(b)) != Some(&b'%') {
            return Err(MmError::Parse(format!(
                "a line longer than {BUF_BYTES} bytes"
            )));
        }
        loop {
            let n = self.read_at(0)?;
            if n == 0 {
                self.end = 0;
                self.eof = true;
                return Ok(());
            }
            if let Some(k) = self.buf[..n].iter().position(|&b| b == b'\n') {
                self.buf.copy_within(k + 1..n, 0);
                self.end = n - k - 1;
                return Ok(());
            }
        }
    }

    /// One read into `buf[at..BUF_BYTES]`; 0 at the end of the input.
    fn read_at(&mut self, at: usize) -> Result<usize, MmError> {
        loop {
            match self.src.read(&mut self.buf[at..BUF_BYTES]) {
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                r => return Ok(r?),
            }
        }
    }
}

fn parse_header<R: Read>(sc: &mut Scanner<R>) -> Result<Header, MmError> {
    let banner = sc
        .line()?
        .ok_or_else(|| MmError::Parse("empty file".into()))?;
    let toks: Vec<&[u8]> = tokens(banner).collect();
    if toks.len() < 5
        || !toks[0].eq_ignore_ascii_case(b"%%MatrixMarket")
        || !toks[1].eq_ignore_ascii_case(b"matrix")
    {
        return Err(MmError::Parse(format!("bad banner: {}", lossy(banner))));
    }
    if !toks[2].eq_ignore_ascii_case(b"coordinate") {
        return Err(MmError::Parse(format!(
            "only coordinate format supported, got {}",
            lossy(toks[2])
        )));
    }
    let field = match &toks[3].to_ascii_lowercase()[..] {
        b"pattern" => Field::Pattern,
        b"real" => Field::Real,
        b"integer" => Field::Integer,
        other => {
            return Err(MmError::Parse(format!(
                "unsupported field type {}",
                lossy(other)
            )))
        }
    };
    let symmetry = match &toks[4].to_ascii_lowercase()[..] {
        b"general" => Symmetry::General,
        b"symmetric" => Symmetry::Symmetric,
        other => {
            return Err(MmError::Parse(format!(
                "unsupported symmetry {}",
                lossy(other)
            )))
        }
    };
    // The size line is the first line that is neither blank nor a comment.
    let (n_rows, n_cols, nnz) = loop {
        let line = sc
            .line()?
            .ok_or_else(|| MmError::Parse("missing size line".into()))?;
        let mut toks = tokens(line).peekable();
        match toks.peek() {
            None => continue,
            Some(t) if t[0] == b'%' => continue,
            Some(_) => {}
        }
        let dims: Vec<Option<u64>> = toks.map(parse_uint).collect();
        match dims[..] {
            [Some(r), Some(c), Some(z)] => break (r, c, z),
            _ => {
                return Err(MmError::Parse(format!("bad size line: {}", lossy(line))));
            }
        }
    };
    let limit = Vidx::MAX as u64;
    if n_rows > limit || n_cols > limit {
        return Err(MmError::Parse(format!(
            "dimensions {n_rows}x{n_cols} exceed the {limit} index limit"
        )));
    }
    if symmetry == Symmetry::Symmetric && n_rows != n_cols {
        return Err(MmError::Parse(format!(
            "a symmetric matrix must be square, got {n_rows}x{n_cols}"
        )));
    }
    Ok(Header {
        field,
        symmetry,
        n_rows: n_rows as usize,
        n_cols: n_cols as usize,
        nnz: usize::try_from(nnz)
            .map_err(|_| MmError::Parse(format!("nnz {nnz} exceeds the address space")))?,
    })
}

/// Scan the entry lines after the header, handing each 0-based, in-bounds
/// `(row, col)` and its value token (empty for `pattern` files) to `entry`.
/// Fails unless exactly the header's nnz entries arrive.
fn scan_entries<R: Read>(
    sc: &mut Scanner<R>,
    h: &Header,
    mut entry: impl FnMut(Vidx, Vidx, &[u8]) -> Result<(), MmError>,
) -> Result<(), MmError> {
    let mut seen = 0usize;
    loop {
        let lines = sc.lines()?;
        if lines.is_empty() {
            break;
        }
        // Every line in `lines` ends in `\n`, which stops each scan below.
        let mut i = 0;
        while i < lines.len() {
            while is_blank(lines[i]) {
                i += 1;
            }
            match lines[i] {
                b'\n' => {
                    i += 1;
                    continue;
                }
                b'%' => {
                    i = after_newline(lines, i);
                    continue;
                }
                _ => {}
            }
            seen += 1;
            if seen > h.nnz {
                return Err(MmError::Parse(format!(
                    "header declares {} entries, file has more",
                    h.nnz
                )));
            }
            let start = i;
            let bad = |what: &str| {
                let line = &lines[start..after_newline(lines, start)];
                MmError::Parse(format!("entry {seen} ({}): {what}", lossy(line)))
            };
            let r = parse_index(lines, &mut i).ok_or_else(|| bad("bad row index"))?;
            if !is_blank(lines[i]) {
                return Err(bad(if lines[i] == b'\n' {
                    "short entry line"
                } else {
                    "bad row index"
                }));
            }
            while is_blank(lines[i]) {
                i += 1;
            }
            let c = parse_index(lines, &mut i).ok_or_else(|| {
                bad(if lines[i] == b'\n' {
                    "short entry line"
                } else {
                    "bad column index"
                })
            })?;
            if !is_blank(lines[i]) && lines[i] != b'\n' {
                return Err(bad("bad column index"));
            }
            let mut value: &[u8] = &[];
            if h.field != Field::Pattern {
                while is_blank(lines[i]) {
                    i += 1;
                }
                let v = i;
                while !is_blank(lines[i]) && lines[i] != b'\n' {
                    i += 1;
                }
                if v == i {
                    return Err(bad("missing value on entry line"));
                }
                value = &lines[v..i];
            }
            if r == 0 || c == 0 || r > h.n_rows as u64 || c > h.n_cols as u64 {
                return Err(bad(&format!(
                    "index out of bounds for {}x{}",
                    h.n_rows, h.n_cols
                )));
            }
            entry((r - 1) as Vidx, (c - 1) as Vidx, value)?;
            i = after_newline(lines, i);
        }
        let n = lines.len();
        sc.consume(n);
    }
    if seen != h.nnz {
        return Err(MmError::Parse(format!(
            "header declares {} entries, file has {seen}",
            h.nnz
        )));
    }
    Ok(())
}

/// The `(row, col)` entries after the header, in a buffer sized once from
/// the header's nnz but never beyond `max_entries`.
fn pattern_entries<R: Read>(
    sc: &mut Scanner<R>,
    h: &Header,
    max_entries: usize,
) -> Result<Vec<(Vidx, Vidx)>, MmError> {
    let mut entries = Vec::with_capacity(h.nnz.min(max_entries));
    scan_entries(sc, h, |r, c, _| {
        entries.push((r, c));
        Ok(())
    })?;
    Ok(entries)
}

/// The CSC pattern of `entries`, mirrored when the file is `symmetric`.
fn build(h: &Header, entries: &[(Vidx, Vidx)]) -> CscMatrix {
    CscMatrix::from_entries(
        h.n_rows,
        h.n_cols,
        entries.iter().copied(),
        h.symmetry == Symmetry::Symmetric,
    )
}

fn read_pattern_capped<R: Read>(reader: R, max_entries: usize) -> Result<CscMatrix, MmError> {
    let mut sc = Scanner::new(reader);
    let h = parse_header(&mut sc)?;
    let entries = pattern_entries(&mut sc, &h, max_entries)?;
    Ok(build(&h, &entries))
}

/// The most entry lines `f` can hold: each takes at least four bytes
/// (`1 1\n`), the last one three.
fn max_entries(f: &File) -> Result<usize, MmError> {
    let meta = f.metadata()?;
    if !meta.is_file() {
        return Ok(UNKNOWN_LEN_ENTRIES);
    }
    Ok(usize::try_from(meta.len() / 4 + 1).unwrap_or(usize::MAX))
}

/// Read a pattern [`CscMatrix`] from Matrix Market text. Symmetric files are
/// expanded to both triangles; numeric values (if any) are ignored.
///
/// The input's length is unknown here, so the entry buffer starts at no
/// more than 2²⁰ entries and grows past that; [`read_pattern_file`] sizes
/// it exactly.
pub fn read_pattern<R: Read>(reader: R) -> Result<CscMatrix, MmError> {
    read_pattern_capped(reader, UNKNOWN_LEN_ENTRIES)
}

/// Read a numeric [`CsrNumeric`] from Matrix Market text (pattern files get
/// value 1.0 on every entry).
pub fn read_numeric<R: Read>(reader: R) -> Result<CsrNumeric, MmError> {
    let mut sc = Scanner::new(reader);
    let h = parse_header(&mut sc)?;
    let symmetric = h.symmetry == Symmetry::Symmetric;
    let per_entry = if symmetric { 2 } else { 1 };
    let mut triplets = Vec::with_capacity(h.nnz.min(UNKNOWN_LEN_ENTRIES) * per_entry);
    scan_entries(&mut sc, &h, |r, c, value| {
        let v = match h.field {
            Field::Pattern => 1.0,
            _ => std::str::from_utf8(value)
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| MmError::Parse(format!("bad value {}", lossy(value))))?,
        };
        triplets.push((r, c, v));
        if symmetric && r != c {
            triplets.push((c, r, v));
        }
        Ok(())
    })?;
    Ok(CsrNumeric::from_triplets(h.n_rows, h.n_cols, triplets))
}

/// Convenience: read a pattern matrix from a file path. The entry buffer is
/// sized once, from the header's nnz capped by the file's length.
pub fn read_pattern_file(path: impl AsRef<Path>) -> Result<CscMatrix, MmError> {
    let f = File::open(path)?;
    let cap = max_entries(&f)?;
    read_pattern_capped(f, cap)
}

/// A square pattern made structurally symmetric for ordering.
#[derive(Clone, Debug)]
pub struct SymmetricPattern {
    /// The structurally symmetric pattern.
    pub matrix: CscMatrix,
    /// True when the stored pattern was unsymmetric and `matrix` is its
    /// `A + Aᵀ`.
    pub symmetrized: bool,
}

/// Read a Matrix Market file as the structurally symmetric pattern an
/// ordering needs. Non-square input is a parse error. A `symmetric` file
/// is symmetric by construction; a `general` one whose pattern is not gets
/// `A + Aᵀ` through the same counting build, and says so in
/// [`SymmetricPattern::symmetrized`].
pub fn read_symmetric_pattern_file(path: impl AsRef<Path>) -> Result<SymmetricPattern, MmError> {
    let f = File::open(path)?;
    let cap = max_entries(&f)?;
    let mut sc = Scanner::new(f);
    let h = parse_header(&mut sc)?;
    if h.n_rows != h.n_cols {
        return Err(MmError::Parse(format!(
            "the matrix is {}x{}; ordering needs a square matrix",
            h.n_rows, h.n_cols
        )));
    }
    let entries = pattern_entries(&mut sc, &h, cap)?;
    let matrix = build(&h, &entries);
    if h.symmetry == Symmetry::Symmetric || matrix.is_symmetric() {
        return Ok(SymmetricPattern {
            matrix,
            symmetrized: false,
        });
    }
    drop(matrix);
    Ok(SymmetricPattern {
        matrix: CscMatrix::from_entries(h.n_rows, h.n_cols, entries.iter().copied(), true),
        symmetrized: true,
    })
}

/// Format `v` in decimal so that its digits end just before `buf[end]`;
/// returns where they start.
#[inline]
fn format_decimal(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut k = end;
    loop {
        k -= 1;
        buf[k] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return k;
        }
    }
}

/// Write a pattern matrix as `coordinate pattern general` Matrix Market
/// text: the banner, one comment line, the size line, then one
/// `format!("{} {}\n", r + 1, c + 1)` line per entry in column-major order.
/// Lines are formatted by hand into a reused buffer and handed to `w` in
/// 64 KiB chunks.
pub fn write_pattern<W: Write>(a: &CscMatrix, mut w: W) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(WRITE_CHUNK + 64);
    out.extend_from_slice(
        b"%%MatrixMarket matrix coordinate pattern general\n% written by rcm-sparse\n",
    );
    // One line, assembled right-aligned: `line[tail..]` holds " {c + 1}\n"
    // for the whole column, and each entry's row goes in front of it.
    let mut line = [0u8; 64];
    let end = line.len();
    for (k, dim) in [a.n_rows(), a.n_cols(), a.nnz()].into_iter().enumerate() {
        let start = format_decimal(&mut line, end, dim as u64);
        out.extend_from_slice(&line[start..]);
        out.push(if k < 2 { b' ' } else { b'\n' });
    }
    line[end - 1] = b'\n';
    for c in 0..a.n_cols() {
        let rows = a.col(c);
        if rows.is_empty() {
            continue;
        }
        let tail = format_decimal(&mut line, end - 1, c as u64 + 1) - 1;
        line[tail] = b' ';
        for &r in rows {
            let start = format_decimal(&mut line, tail, r as u64 + 1);
            out.extend_from_slice(&line[start..]);
            if out.len() >= WRITE_CHUNK {
                w.write_all(&out)?;
                out.clear();
            }
        }
    }
    w.write_all(&out)?;
    w.flush()
}

/// Convenience: write a pattern matrix to a file path.
pub fn write_pattern_file(a: &CscMatrix, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_pattern(a, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYMMETRIC_SAMPLE: &str = "\
%%MatrixMarket matrix coordinate pattern symmetric
% a 4-vertex path stored as lower triangle
4 4 3
2 1
3 2
4 3
";

    #[test]
    fn read_symmetric_pattern_expands_triangles() {
        let m = read_pattern(SYMMETRIC_SAMPLE.as_bytes()).unwrap();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.nnz(), 6);
        assert!(m.is_symmetric());
        assert!(m.contains(0, 1) && m.contains(1, 0));
    }

    #[test]
    fn roundtrip_write_read() {
        let m = read_pattern(SYMMETRIC_SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_pattern(&m, &mut buf).unwrap();
        let m2 = read_pattern(buf.as_slice()).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn read_real_general() {
        let text = "\
%%MatrixMarket matrix coordinate real general
2 3 2
1 1 1.5
2 3 -2.0
";
        let m = read_pattern(text.as_bytes()).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 2);
        let num = read_numeric(text.as_bytes()).unwrap();
        assert_eq!(num.get(0, 0), 1.5);
        assert_eq!(num.get(1, 2), -2.0);
    }

    #[test]
    fn read_numeric_symmetric_mirrors_values() {
        let text = "\
%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 4.0
2 1 1.0
";
        let num = read_numeric(text.as_bytes()).unwrap();
        assert_eq!(num.get(0, 1), 1.0);
        assert_eq!(num.get(1, 0), 1.0);
        assert!(num.is_symmetric(1e-12));
    }

    #[test]
    fn bad_banner_is_rejected() {
        let text = "%%NotMatrixMarket nothing\n1 1 0\n";
        assert!(read_pattern(text.as_bytes()).is_err());
    }

    #[test]
    fn nnz_mismatch_is_rejected() {
        let text = "\
%%MatrixMarket matrix coordinate pattern general
2 2 3
1 1
2 2
";
        assert!(matches!(
            read_pattern(text.as_bytes()),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn out_of_bounds_entry_is_rejected() {
        let text = "\
%%MatrixMarket matrix coordinate pattern general
2 2 1
3 1
";
        assert!(read_pattern(text.as_bytes()).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "\
%%MatrixMarket matrix coordinate pattern general
% comment

2 2 1
% another comment
1 2
";
        let m = read_pattern(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn crlf_line_endings_parse_identically() {
        // SuiteSparse files written on Windows carry \r\n; the parser must
        // treat them exactly like \n (including on the banner and size
        // lines).
        let unix = SYMMETRIC_SAMPLE;
        let dos = unix.replace('\n', "\r\n");
        let m_unix = read_pattern(unix.as_bytes()).unwrap();
        let m_dos = read_pattern(dos.as_bytes()).unwrap();
        assert_eq!(m_unix, m_dos);
        let n_unix = read_numeric(unix.as_bytes()).unwrap();
        let n_dos = read_numeric(dos.as_bytes()).unwrap();
        assert_eq!(n_unix.get(0, 1), n_dos.get(0, 1));
    }

    #[test]
    fn blank_and_comment_interleave_between_entries() {
        // Comments and blank lines may appear *anywhere* after the banner,
        // including between data entries and before the size line.
        let text = "\
%%MatrixMarket matrix coordinate pattern symmetric
% leading comment

% another
3 3 2

2 1
% between entries

3 2
";
        let m = read_pattern(text.as_bytes()).unwrap();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.nnz(), 4); // two entries, both triangles
        assert!(m.is_symmetric());
    }

    #[test]
    fn pattern_symmetric_vs_real_general_headers() {
        // The same structure declared two ways: `pattern symmetric` stores
        // one triangle with no values; `real general` stores both triangles
        // with values. The resulting patterns must agree.
        let sym = "\
%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 2
";
        let gen = "\
%%MatrixMarket matrix coordinate real general
3 3 4
2 1 1.0
1 2 1.0
3 2 2.5
2 3 2.5
";
        let m_sym = read_pattern(sym.as_bytes()).unwrap();
        let m_gen = read_pattern(gen.as_bytes()).unwrap();
        assert_eq!(m_sym, m_gen);
        // `real` entries missing their value token are malformed.
        let missing_value = "\
%%MatrixMarket matrix coordinate real general
2 2 1
1 2
";
        assert!(matches!(
            read_pattern(missing_value.as_bytes()),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn out_of_range_one_based_indices_are_rejected() {
        // Matrix Market indices are 1-based: 0 is below range, n+1 above;
        // both must fail with a parse error, in both readers.
        for bad in [
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 3\n",
        ] {
            assert!(
                matches!(read_pattern(bad.as_bytes()), Err(MmError::Parse(_))),
                "pattern reader accepted: {bad}"
            );
        }
        let bad_num = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n";
        assert!(matches!(
            read_numeric(bad_num.as_bytes()),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn unsupported_header_variants_are_rejected() {
        for bad in [
            // array (dense) format
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
            // complex field
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
            // skew-symmetric / hermitian symmetry
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
            "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n2 1 1.0 0.0\n",
            // truncated banner
            "%%MatrixMarket matrix coordinate\n1 1 0\n",
        ] {
            assert!(
                read_pattern(bad.as_bytes()).is_err(),
                "accepted unsupported header: {bad}"
            );
        }
    }

    #[test]
    fn malformed_size_line_is_rejected() {
        for bad in [
            "%%MatrixMarket matrix coordinate pattern general\n2 2\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1 9\n1 1\n",
            "%%MatrixMarket matrix coordinate pattern general\nx y z\n",
            "%%MatrixMarket matrix coordinate pattern general\n-2 2 1\n1 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n",
        ] {
            assert!(
                matches!(read_pattern(bad.as_bytes()), Err(MmError::Parse(_))),
                "accepted malformed size line: {bad}"
            );
        }
    }

    /// A reader handing out at most `step` bytes per `read`, so lines
    /// straddle every refill.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn temp_file(name: &str, body: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rcm-sparse-mm-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    /// A banded symmetric pattern as `pattern symmetric` text (lower
    /// triangle, column-major) spanning many read buffers, and its matrix.
    fn banded_text(n: usize) -> (String, CscMatrix) {
        let mut b = crate::coo::CooBuilder::new(n, n);
        let mut lines = Vec::new();
        for c in 0..n {
            for r in [c, c + 1, c + 37] {
                if r < n {
                    b.push_sym(r as Vidx, c as Vidx);
                    lines.push(format!("{} {}\n", r + 1, c + 1));
                }
            }
        }
        let text = format!(
            "%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {}\n{}",
            lines.len(),
            lines.concat()
        );
        (text, b.build())
    }

    #[test]
    fn hostile_nnz_header_is_a_parse_error() {
        // Declaring 10^12 entries must not size any buffer from the
        // header: every reader answers with a parse error.
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000000\n1 1\n";
        assert!(matches!(
            read_pattern(text.as_bytes()),
            Err(MmError::Parse(_))
        ));
        assert!(matches!(
            read_numeric(text.as_bytes()),
            Err(MmError::Parse(_))
        ));
        let path = temp_file("hostile-nnz.mtx", text);
        assert!(matches!(read_pattern_file(&path), Err(MmError::Parse(_))));
        assert!(matches!(
            read_symmetric_pattern_file(&path),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn dimensions_beyond_the_index_type_are_a_parse_error() {
        for text in [
            "%%MatrixMarket matrix coordinate pattern general\n4294967296 2 1\n1 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 4294967296 1\n1 1\n",
            "%%MatrixMarket matrix coordinate real general\n99999999999999999999 2 1\n1 1 1.0\n",
        ] {
            assert!(
                matches!(read_pattern(text.as_bytes()), Err(MmError::Parse(_))),
                "accepted: {text}"
            );
            assert!(matches!(
                read_numeric(text.as_bytes()),
                Err(MmError::Parse(_))
            ));
        }
    }

    #[test]
    fn symmetric_banner_needs_square_dimensions() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 3\n";
        assert!(matches!(
            read_pattern(text.as_bytes()),
            Err(MmError::Parse(_))
        ));
        assert!(matches!(
            read_numeric(text.as_bytes()),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn more_entries_than_declared_are_rejected() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n2 2\n";
        assert!(matches!(
            read_pattern(text.as_bytes()),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn malformed_entry_tokens_are_rejected() {
        for entry in ["1x 2", "1 2x", "1", "++1 2", "1 -2", "1 +", "a b", "1,2"] {
            let text =
                format!("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n{entry}\n");
            assert!(
                matches!(read_pattern(text.as_bytes()), Err(MmError::Parse(_))),
                "accepted entry {entry:?}"
            );
        }
        let bad_value = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 x\n";
        assert!(matches!(
            read_numeric(bad_value.as_bytes()),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn signs_tabs_extra_tokens_and_a_missing_final_newline_are_accepted() {
        let text = "%%MatrixMarket matrix coordinate integer general\n\t3 3 3 \n\
                    +1\t+2 7 trailing words\n  2 3 -4\r\n3\t1\t5";
        let m = read_pattern(text.as_bytes()).unwrap();
        assert!(m.contains(0, 1) && m.contains(1, 2) && m.contains(2, 0));
        assert_eq!(m.nnz(), 3);
        let num = read_numeric(text.as_bytes()).unwrap();
        assert_eq!(num.get(1, 2), -4.0);
        assert_eq!(num.get(2, 0), 5.0);
    }

    #[test]
    fn input_is_streamed_across_read_boundaries() {
        // Many buffers' worth of text, read whole and trickled a few bytes
        // at a time: lines straddle every refill, results must not move.
        let (text, expected) = banded_text(20_000);
        assert!(text.len() > 3 * BUF_BYTES);
        assert_eq!(read_pattern(text.as_bytes()).unwrap(), expected);
        for step in [1, 7, 4093] {
            let trickle = Trickle {
                data: text.as_bytes(),
                step,
            };
            assert_eq!(read_pattern(trickle).unwrap(), expected, "step {step}");
        }
        let path = temp_file("banded.mtx", &text);
        assert_eq!(read_pattern_file(&path).unwrap(), expected);
    }

    #[test]
    fn long_comment_lines_are_skipped_and_long_data_lines_rejected() {
        let long_comment = format!("%{}\n", "c".repeat(3 * BUF_BYTES));
        let text = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{long_comment}2 2 2\n\
             {long_comment}1 2\n{long_comment}2 1\n{long_comment}"
        );
        let m = read_pattern(text.as_bytes()).unwrap();
        assert!(m.contains(0, 1) && m.contains(1, 0) && m.nnz() == 2);
        let trickle = Trickle {
            data: text.as_bytes(),
            step: 1000,
        };
        assert_eq!(read_pattern(trickle).unwrap(), m);
        let long_entry = format!(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2{}\n",
            " ".repeat(BUF_BYTES)
        );
        assert!(matches!(
            read_pattern(long_entry.as_bytes()),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn symmetric_intake_rejects_non_square_and_reports_symmetrizing() {
        let rect = temp_file(
            "rect.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 3\n2 1\n",
        );
        assert!(matches!(
            read_symmetric_pattern_file(&rect),
            Err(MmError::Parse(_))
        ));
        // One-sided general input gets A + Aᵀ and says so.
        let one_sided = temp_file(
            "one-sided.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n2 1\n3 2\n3 2\n",
        );
        let got = read_symmetric_pattern_file(&one_sided).unwrap();
        assert!(got.symmetrized);
        let mut b = crate::coo::CooBuilder::new(3, 3);
        b.push_sym(1, 0);
        b.push_sym(2, 1);
        assert_eq!(got.matrix, b.build());
        // Symmetric storage, and general storage of a symmetric pattern,
        // need nothing.
        let (text, expected) = banded_text(50);
        for (name, body) in [
            ("sym.mtx", text.clone()),
            ("gen.mtx", {
                let mut buf = Vec::new();
                write_pattern(&expected, &mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            }),
        ] {
            let got = read_symmetric_pattern_file(temp_file(name, &body)).unwrap();
            assert!(!got.symmetrized, "{name}");
            assert_eq!(got.matrix, expected, "{name}");
        }
    }

    #[test]
    fn write_pattern_bytes_match_the_format_macro() {
        let (_, m) = banded_text(9_000);
        let mut expected = format!(
            "%%MatrixMarket matrix coordinate pattern general\n% written by rcm-sparse\n{} {} {}\n",
            m.n_rows(),
            m.n_cols(),
            m.nnz()
        );
        for (r, c) in m.iter_entries() {
            expected.push_str(&format!("{} {}\n", r + 1, c + 1));
        }
        assert!(expected.len() > 2 * WRITE_CHUNK);
        let mut buf = Vec::new();
        write_pattern(&m, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
    }
}

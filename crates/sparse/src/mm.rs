//! Matrix Market I/O.
//!
//! Supports the subset of the format needed to ingest SuiteSparse matrices
//! for RCM: `matrix coordinate` with `pattern`, `real` or `integer` fields
//! and `general` or `symmetric` symmetry. Values are discarded when reading
//! into a pattern matrix; [`read_numeric`] keeps them.
//!
//! The readers stream. A byte scanner walks its input through one fixed
//! 64 KiB buffer and parses indices by hand. [`read_pattern_file`] and
//! [`read_symmetric_pattern_file`] read the header of a regular file, then
//! split the rest into line-aligned byte ranges, one per available core
//! but no smaller than 128 KiB (so a file under 256 KiB is one range),
//! each streamed by its own scanner over positioned reads; the calling
//! thread parses the first. A pipe or other non-regular file, and any
//! [`read_pattern`] stream, is one range on the calling thread.
//!
//! A range keeps its entries as column runs (the rows, and one head per
//! column) while they arrive column-major with strictly increasing rows,
//! in the lower triangle for a `symmetric` file: the order of every file
//! written from a CSC matrix, [`write_pattern`]'s included. Such a `general`
//! file's rows are the matrix's row indices as they are; a `symmetric` one
//! is mirrored by threads that each fill a block of columns, with no sort.
//! Any other order turns the range into an entry buffer, and the pattern
//! goes through one counting CSC build instead. Every buffer of a read,
//! sized from the header's nnz capped by what its bytes can hold, is
//! allocated on the calling thread, so a header that declares more entries
//! than the file holds costs nothing. A ranged read that meets any error
//! reads the file again serially, so every message is the serial reader's.
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
/// the entry buffers grow as entries arrive.
const UNKNOWN_LEN_ENTRIES: usize = 1 << 20;

/// The fewest bytes a range of a parallel file read gets, so a file
/// shorter than twice this is read on the calling thread alone. On
/// RCM-ordered ldoor patterns stored `symmetric` (2-vCPU host, in-process
/// medians of 41 reads), two ranges read a 133 KB file in 0.58 ms against
/// one range's 0.65-0.74 ms, and a 59 KB file in 0.28 ms against 0.17-0.25.
const RANGE_MIN_BYTES: u64 = 1 << 17;

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

#[derive(Debug)]
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
    /// Bytes read from `src`.
    read: u64,
    /// Whether `buf[end - 1]` is the `\n` added to an unterminated last
    /// line rather than a byte of the input.
    added_newline: bool,
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
            read: 0,
            added_newline: false,
        }
    }

    /// How many bytes of the input precede the unread part.
    fn offset(&self) -> u64 {
        let unread = self.end - self.pos - usize::from(self.added_newline && self.pos < self.end);
        self.read - unread as u64
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
                    self.added_newline = true;
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
                r => {
                    let n = r?;
                    self.read += n as u64;
                    return Ok(n);
                }
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
/// Returns how many entries arrived; more than the header's nnz is an
/// error, fewer is the caller's to check ([`check_count`]).
fn scan_entries<R: Read>(
    sc: &mut Scanner<R>,
    h: &Header,
    mut entry: impl FnMut(Vidx, Vidx, &[u8]) -> Result<(), MmError>,
) -> Result<usize, MmError> {
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
    Ok(seen)
}

/// Fails unless exactly the header's nnz entries arrived.
fn check_count(h: &Header, seen: usize) -> Result<(), MmError> {
    if seen != h.nnz {
        return Err(MmError::Parse(format!(
            "header declares {} entries, file has {seen}",
            h.nnz
        )));
    }
    Ok(())
}

/// Fails unless the matrix is square, as an ordering needs.
fn check_square(h: &Header) -> Result<(), MmError> {
    if h.n_rows != h.n_cols {
        return Err(MmError::Parse(format!(
            "the matrix is {}x{}; ordering needs a square matrix",
            h.n_rows, h.n_cols
        )));
    }
    Ok(())
}

/// The pattern entries of one range of the input.
///
/// While they arrive column-major with strictly increasing rows (and, in a
/// `symmetric` file, in the lower triangle) they are kept as column runs:
/// `rows` in arrival order, and one head per column naming it and where
/// its run starts in `rows`. The first entry out of that order turns the
/// range into an entry buffer: `cols` then holds every entry's column.
///
/// The buffers get their capacity before the range is filled, from a bound
/// on the entries its bytes can hold, so a range filled on a worker thread
/// never allocates there, and nothing is sized from the header's
/// dimensions before its entries have been read.
struct Entries {
    symmetric: bool,
    sorted: bool,
    rows: Vec<Vidx>,
    heads: Vec<(Vidx, usize)>,
    cols: Vec<Vidx>,
    /// The last `(col, row)` kept in the runs.
    last: (Vidx, Vidx),
}

impl Entries {
    /// An empty range with room for `cap` entries as column runs. Room for
    /// the entry buffer's columns is left to [`Entries::reserve_cols`].
    fn new(h: &Header, cap: usize) -> Self {
        let symmetric = h.symmetry == Symmetry::Symmetric;
        Entries {
            symmetric,
            sorted: true,
            rows: Vec::with_capacity(cap),
            heads: Vec::with_capacity(cap.min(h.n_cols)),
            cols: Vec::new(),
            last: (0, 0),
        }
    }

    #[inline]
    fn push(&mut self, r: Vidx, c: Vidx) {
        if self.sorted {
            let first = self.rows.is_empty();
            if (first || (c, r) > self.last) && !(self.symmetric && r < c) {
                if first || c != self.last.0 {
                    self.heads.push((c, self.rows.len()));
                }
                self.rows.push(r);
                self.last = (c, r);
                return;
            }
            self.unsort();
        }
        self.rows.push(r);
        self.cols.push(c);
    }

    /// The column runs in column order: each column and its rows.
    fn runs(&self) -> impl Iterator<Item = (usize, &[Vidx])> + '_ {
        let ends = self
            .heads
            .iter()
            .skip(1)
            .map(|&(_, start)| start)
            .chain([self.rows.len()]);
        self.heads
            .iter()
            .zip(ends)
            .map(|(&(c, start), end)| (c as usize, &self.rows[start..end]))
    }

    /// Give `cols` room for as many entries as `rows` has.
    fn reserve_cols(&mut self) {
        self.cols.reserve_exact(self.rows.capacity());
    }

    /// Turn the runs into an entry buffer.
    #[cold]
    fn unsort(&mut self) {
        if !self.sorted {
            return;
        }
        self.reserve_cols();
        let mut cols = std::mem::take(&mut self.cols);
        for (c, run) in self.runs() {
            cols.extend(std::iter::repeat_n(c as Vidx, run.len()));
        }
        self.cols = cols;
        self.sorted = false;
    }

    /// Every entry as `(row, col)`, once the range is an entry buffer.
    fn pairs(&self) -> impl Iterator<Item = (Vidx, Vidx)> + Clone + '_ {
        debug_assert!(!self.sorted);
        self.rows.iter().copied().zip(self.cols.iter().copied())
    }
}

/// Whether the ranges, taken in order, are one sequence of column runs.
fn runs_in_order(parts: &[Entries]) -> bool {
    let mut last = None;
    for e in parts {
        if !e.sorted {
            return false;
        }
        if let Some(&(c, _)) = e.heads.first() {
            if last.is_some_and(|l| (c, e.rows[0]) <= l) {
                return false;
            }
            last = Some(e.last);
        }
    }
    true
}

/// The CSC pattern of the parsed ranges, mirrored when the file is
/// `symmetric`. Runs in order across the ranges build it directly, a
/// mirror on `threads` threads; anything else goes through the counting
/// build.
fn build(h: &Header, mut parts: Vec<Entries>, threads: usize) -> CscMatrix {
    let symmetric = h.symmetry == Symmetry::Symmetric;
    if runs_in_order(&parts) {
        return if symmetric {
            mirror_runs(h.n_cols, &parts, threads)
        } else {
            concat_runs(h, parts)
        };
    }
    for e in &mut parts {
        e.unsort();
    }
    CscMatrix::from_entries(
        h.n_rows,
        h.n_cols,
        parts.iter().flat_map(Entries::pairs),
        symmetric,
    )
}

/// A `general` file's runs in order: their rows are the matrix's row
/// indices as they stand.
fn concat_runs(h: &Header, parts: Vec<Entries>) -> CscMatrix {
    let mut col_ptr = vec![0usize; h.n_cols + 1];
    for (c, run) in parts.iter().flat_map(Entries::runs) {
        col_ptr[c + 1] += run.len();
    }
    for c in 0..h.n_cols {
        col_ptr[c + 1] += col_ptr[c];
    }
    let mut parts = parts.into_iter();
    let mut row_idx = parts.next().map_or_else(Vec::new, |e| e.rows);
    row_idx.reserve_exact(col_ptr[h.n_cols] - row_idx.len());
    for e in parts {
        row_idx.extend_from_slice(&e.rows);
    }
    row_idx.shrink_to_fit();
    CscMatrix::from_parts(h.n_rows, h.n_cols, col_ptr, row_idx)
}

/// A `symmetric` file's lower-triangle runs in order, mirrored into both
/// triangles. The columns are split into `threads` contiguous blocks that
/// receive about equally many mirrored entries; each thread fills its
/// block of `row_idx` (the calling thread the first). Columns come out
/// sorted and unique, with no sort.
///
/// Mirrored entries are what the blocks are balanced on because they are
/// scattered, one cache line each, while a column's own run is one copy.
/// On a shuffled mesh a mirrored entry cost about nine times a copied one,
/// so blocks of equal nnz left one thread with twice the other's work.
fn mirror_runs(n: usize, parts: &[Entries], threads: usize) -> CscMatrix {
    // Per part, how many of its entries below the diagonal lie in each row:
    // the mirrored entries each column receives. In order, a row occurs at
    // most once per column, so fewer than `n` times.
    let mut below: Vec<Vec<u32>> = parts.iter().map(|_| vec![0; n]).collect();
    std::thread::scope(|s| {
        let mut counts = parts.iter().zip(&mut below);
        let first = counts.next().expect("at least one part");
        for (e, count) in counts {
            s.spawn(move || count_below(e, count));
        }
        count_below(first.0, first.1);
    });
    // col_ptr[c + 1] counts column c, then (prefix sum) holds its end; its
    // first n slots are the blocks' scatter cursors, shifted into column
    // starts afterwards.
    let mut col_ptr = vec![0usize; n + 1];
    for count in &below {
        for (c, &m) in count.iter().enumerate() {
            col_ptr[c + 1] += m as usize;
        }
    }
    drop(below);
    let mirrored: usize = col_ptr.iter().sum();
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut seen = 0;
    for c in 0..n {
        if seen >= mirrored / threads * bounds.len() {
            bounds.push(c);
            if bounds.len() == threads {
                break;
            }
        }
        seen += col_ptr[c + 1];
    }
    bounds.resize(threads, n);
    bounds.push(n);
    for (c, run) in parts.iter().flat_map(Entries::runs) {
        col_ptr[c + 1] += run.len();
    }
    for c in 0..n {
        col_ptr[c + 1] += col_ptr[c];
    }
    let nnz = col_ptr[n];
    let mut row_idx = vec![0 as Vidx; nnz];
    let mut blocks = Vec::with_capacity(threads);
    let (mut cursors, mut out) = (&mut col_ptr[..n], &mut row_idx[..]);
    for w in bounds.windows(2) {
        let base = cursors.first().copied().unwrap_or(nnz);
        let (block, rest) = std::mem::take(&mut cursors).split_at_mut(w[1] - w[0]);
        let len = rest.first().copied().unwrap_or(nnz) - base;
        let (block_out, rest_out) = std::mem::take(&mut out).split_at_mut(len);
        blocks.push((w[0], base, block, block_out));
        (cursors, out) = (rest, rest_out);
    }
    std::thread::scope(|s| {
        let mut blocks = blocks.into_iter();
        let (lo, base, cursors, out) = blocks.next().expect("one block per thread");
        for (lo, base, cursors, out) in blocks {
            s.spawn(move || mirror_block(parts, lo, base, cursors, out));
        }
        mirror_block(parts, lo, base, cursors, out);
    });
    col_ptr.copy_within(0..n, 1);
    col_ptr[0] = 0;
    CscMatrix::from_parts(n, n, col_ptr, row_idx)
}

/// Count the runs' entries below the diagonal by row.
fn count_below(e: &Entries, count: &mut [u32]) {
    for (c, run) in e.runs() {
        let below = usize::from(run.first() == Some(&(c as Vidx)));
        for &r in &run[below..] {
            count[r as usize] += 1;
        }
    }
}

/// Fill columns `lo..lo + cursors.len()` of the mirrored pattern: `out`
/// holds them from entry `base` on, and each column's cursor starts at its
/// first entry. Walking the source columns `c` in ascending order, each
/// entry `(r, c)` below the diagonal adds row `c` to column `r`, and then
/// column `c`'s own run follows the rows (all below `c`) it received.
fn mirror_block(
    parts: &[Entries],
    lo: usize,
    base: usize,
    cursors: &mut [usize],
    out: &mut [Vidx],
) {
    let hi = lo + cursors.len();
    for (c, run) in parts.iter().flat_map(Entries::runs) {
        if c >= hi {
            break;
        }
        let below = if c < lo {
            run.partition_point(|&r| (r as usize) < lo)
        } else {
            usize::from(run.first() == Some(&(c as Vidx)))
        };
        for &r in &run[below..] {
            let Some(cursor) = cursors.get_mut(r as usize - lo) else {
                break;
            };
            out[*cursor - base] = c as Vidx;
            *cursor += 1;
        }
        if c >= lo {
            let cursor = &mut cursors[c - lo];
            out[*cursor - base..][..run.len()].copy_from_slice(run);
            *cursor += run.len();
        }
    }
}

/// Read a whole stream as one range on the calling thread; `max_entries`
/// caps the capacity reserved up front.
fn read_stream<R: Read>(
    reader: R,
    max_entries: usize,
    square: bool,
) -> Result<(Header, CscMatrix), MmError> {
    let mut sc = Scanner::new(reader);
    let h = parse_header(&mut sc)?;
    if square {
        check_square(&h)?;
    }
    let mut entries = Entries::new(&h, h.nnz.min(max_entries));
    let seen = scan_entries(&mut sc, &h, |r, c, _| {
        entries.push(r, c);
        Ok(())
    })?;
    check_count(&h, seen)?;
    let matrix = build(&h, vec![entries], 1);
    Ok((h, matrix))
}

/// The most entry lines `bytes` bytes can hold: each takes at least four
/// (`1 1\n`), the last one three.
fn entries_in(bytes: u64) -> usize {
    usize::try_from(bytes / 4 + 1).unwrap_or(usize::MAX)
}

/// How many ranges [`read_pattern_file`] splits a regular file of `len`
/// bytes into: one per available core, each at least `RANGE_MIN_BYTES`.
fn default_ranges(len: u64) -> usize {
    let most = usize::try_from(len / RANGE_MIN_BYTES).unwrap_or(usize::MAX);
    if most < 2 {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    most.min(cores)
}

/// Read the pattern of the file at `path`. A regular file is parsed over
/// `ranges` line-aligned byte ranges (`None`: as many as
/// [`default_ranges`] gives for its length); anything else streams as one
/// range on the calling thread. With `square`, a non-square header is an
/// error before any entry is read.
fn read_file(
    path: &Path,
    ranges: Option<usize>,
    square: bool,
) -> Result<(Header, CscMatrix), MmError> {
    let f = File::open(path)?;
    let meta = f.metadata()?;
    if !meta.is_file() {
        return read_stream(f, UNKNOWN_LEN_ENTRIES, square);
    }
    let len = meta.len();
    let ranges = ranges.unwrap_or_else(|| default_ranges(len));
    #[cfg(unix)]
    return ranged::read(&f, len, ranges, square);
    #[cfg(not(unix))]
    {
        let _ = ranges;
        read_stream(f, entries_in(len), square)
    }
}

/// Parallel reads of a regular file's entries over positioned reads.
#[cfg(unix)]
mod ranged {
    use std::fs::File;
    use std::io::{ErrorKind, Read};
    use std::os::unix::fs::FileExt;

    use super::{
        build, check_count, check_square, entries_in, parse_header, read_stream, scan_entries,
        Entries, Header, MmError, Scanner,
    };
    use crate::csc::CscMatrix;

    /// The bytes `pos..end` of a file, read with positioned reads, so that
    /// ranges of one file can be read side by side.
    struct At<'a> {
        file: &'a File,
        pos: u64,
        end: u64,
    }

    impl Read for At<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let want = usize::try_from(self.end - self.pos).map_or(buf.len(), |r| r.min(buf.len()));
            let n = self.file.read_at(&mut buf[..want], self.pos)?;
            self.pos += n as u64;
            Ok(n)
        }
    }

    /// Read `f` (`len` bytes) over `ranges` line-aligned ranges. Any error
    /// past the header reads the file again serially, which reports it the
    /// way a stream does.
    pub(super) fn read(
        f: &File,
        len: u64,
        ranges: usize,
        square: bool,
    ) -> Result<(Header, CscMatrix), MmError> {
        let whole = || At {
            file: f,
            pos: 0,
            end: len,
        };
        let mut sc = Scanner::new(whole());
        let h = parse_header(&mut sc)?;
        if square {
            check_square(&h)?;
        }
        let parts = line_bounds(f, sc.offset(), len, ranges)
            .map_err(MmError::from)
            .and_then(|bounds| scan(f, &h, &bounds));
        match parts {
            Ok(parts) => {
                let matrix = build(&h, parts, ranges);
                Ok((h, matrix))
            }
            Err(_) => read_stream(whole(), entries_in(len), square),
        }
    }

    /// Bounds of `ranges` byte ranges that cover `start..len` in near-equal
    /// parts, each moved forward to the start of a line.
    fn line_bounds(f: &File, start: u64, len: u64, ranges: usize) -> std::io::Result<Vec<u64>> {
        let mut bounds = Vec::with_capacity(ranges + 1);
        bounds.push(start);
        let mut buf = [0u8; 512];
        for i in 1..ranges {
            let prev = bounds[i - 1];
            let target = start + ((len - start) as u128 * i as u128 / ranges as u128) as u64;
            if target <= prev {
                bounds.push(prev);
                continue;
            }
            // A line starts at `target` if the byte before it ends one.
            let mut at = At {
                file: f,
                pos: target - 1,
                end: len,
            };
            let bound = loop {
                let n = match at.read(&mut buf) {
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    r => r?,
                };
                if n == 0 {
                    break len;
                }
                if let Some(k) = buf[..n].iter().position(|&b| b == b'\n') {
                    break at.pos - n as u64 + k as u64 + 1;
                }
            };
            bounds.push(bound);
        }
        bounds.push(len);
        Ok(bounds)
    }

    /// Parse the ranges between consecutive `bounds`, the first on the
    /// calling thread and each other on a thread of its own. Scanners and
    /// entry buffers are made here and lent to the workers, so they
    /// allocate nothing.
    fn scan(f: &File, h: &Header, bounds: &[u64]) -> Result<Vec<Entries>, MmError> {
        let mut parts: Vec<(Scanner<At<'_>>, Entries)> = bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let cap = h.nnz.min(entries_in(w[1] - w[0]));
                let range = At {
                    file: f,
                    pos: w[0],
                    end: w[1],
                };
                let mut entries = Entries::new(h, cap);
                if i > 0 {
                    entries.reserve_cols();
                }
                (Scanner::new(range), entries)
            })
            .collect();
        let parse = |(sc, entries): &mut (Scanner<At<'_>>, Entries)| {
            scan_entries(sc, h, |r, c, _| {
                entries.push(r, c);
                Ok(())
            })
        };
        let seen = std::thread::scope(|s| {
            let (first, rest) = parts.split_first_mut().expect("at least one range");
            let workers: Vec<_> = rest.iter_mut().map(|p| s.spawn(move || parse(p))).collect();
            let mut seen = parse(first);
            for w in workers {
                let more = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                seen = seen.and_then(|a| Ok(a + more?));
            }
            seen
        })?;
        check_count(h, seen)?;
        Ok(parts.into_iter().map(|(_, entries)| entries).collect())
    }
}

/// Read a pattern [`CscMatrix`] from Matrix Market text. Symmetric files are
/// expanded to both triangles; numeric values (if any) are ignored.
///
/// The input's length is unknown here, so the entry buffers start with
/// room for no more than 2²⁰ entries and grow past that;
/// [`read_pattern_file`] sizes them from the file's length.
pub fn read_pattern<R: Read>(reader: R) -> Result<CscMatrix, MmError> {
    read_stream(reader, UNKNOWN_LEN_ENTRIES, false).map(|(_, m)| m)
}

/// Read a numeric [`CsrNumeric`] from Matrix Market text (pattern files get
/// value 1.0 on every entry).
pub fn read_numeric<R: Read>(reader: R) -> Result<CsrNumeric, MmError> {
    let mut sc = Scanner::new(reader);
    let h = parse_header(&mut sc)?;
    let symmetric = h.symmetry == Symmetry::Symmetric;
    let per_entry = if symmetric { 2 } else { 1 };
    let mut triplets = Vec::with_capacity(h.nnz.min(UNKNOWN_LEN_ENTRIES) * per_entry);
    let seen = scan_entries(&mut sc, &h, |r, c, value| {
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
    check_count(&h, seen)?;
    Ok(CsrNumeric::from_triplets(h.n_rows, h.n_cols, triplets))
}

/// Convenience: read a pattern matrix from a file path. A regular file is
/// parsed on up to one thread per available core (see the module docs);
/// every buffer is sized from the header's nnz, capped by the file's
/// length.
pub fn read_pattern_file(path: impl AsRef<Path>) -> Result<CscMatrix, MmError> {
    read_file(path.as_ref(), None, false).map(|(_, m)| m)
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
/// ordering needs, the way [`read_pattern_file`] reads it. Non-square input
/// is a parse error. A `symmetric` file is symmetric by construction; a
/// `general` one whose pattern is not gets `A + Aᵀ` through the counting
/// build, and says so in [`SymmetricPattern::symmetrized`].
pub fn read_symmetric_pattern_file(path: impl AsRef<Path>) -> Result<SymmetricPattern, MmError> {
    let (h, matrix) = read_file(path.as_ref(), None, true)?;
    if h.symmetry == Symmetry::Symmetric || matrix.is_symmetric() {
        return Ok(SymmetricPattern {
            matrix,
            symmetrized: false,
        });
    }
    let n = matrix.n_cols();
    let entries = (0..n).flat_map(|c| matrix.col(c).iter().map(move |&r| (r, c as Vidx)));
    Ok(SymmetricPattern {
        matrix: CscMatrix::from_entries(n, n, entries, true),
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

/// Width of one formatted token in [`write_pattern`]: up to 12 bytes of
/// text (` `, the ten digits of a 1-based `u32` index, `\n`), its length in
/// the last byte.
const SLOT: usize = 16;

/// `text` left-aligned in a zeroed slot, its length in the last byte.
#[inline]
fn slot(text: &[u8]) -> [u8; SLOT] {
    let mut s = [0u8; SLOT];
    s[..text.len()].copy_from_slice(text);
    s[SLOT - 1] = text.len() as u8;
    s
}

/// Write a pattern matrix as `coordinate pattern general` Matrix Market
/// text: the banner, one comment line, the size line, then one
/// `format!("{} {}\n", r + 1, c + 1)` line per entry in column-major order.
///
/// Each row's digits are formatted once, on its first entry, into a slot
/// of a zeroed per-row table (untouched slots cost no resident memory),
/// and each column's ` c\n` tail once per column. A line is then two
/// fixed-width slot copies into a 64 KiB chunk, each advanced by its
/// text's length; the chunk is handed to `w` when full.
pub fn write_pattern<W: Write>(a: &CscMatrix, mut w: W) -> std::io::Result<()> {
    let header = format!(
        "%%MatrixMarket matrix coordinate pattern general\n% written by rcm-sparse\n{} {} {}\n",
        a.n_rows(),
        a.n_cols(),
        a.nnz()
    );
    w.write_all(header.as_bytes())?;
    // Room for one more line's two whole slots past the flush mark.
    let mut out = vec![0u8; WRITE_CHUNK + 2 * SLOT];
    let mut len = 0;
    let mut rows = vec![[0u8; SLOT]; a.n_rows()];
    let mut digits = [0u8; SLOT];
    for c in 0..a.n_cols() {
        let col = a.col(c);
        if col.is_empty() {
            continue;
        }
        digits[SLOT - 1] = b'\n';
        let start = format_decimal(&mut digits, SLOT - 1, c as u64 + 1) - 1;
        digits[start] = b' ';
        let tail = slot(&digits[start..]);
        for &r in col {
            let row = &mut rows[r as usize];
            if row[SLOT - 1] == 0 {
                let start = format_decimal(&mut digits, SLOT, r as u64 + 1);
                *row = slot(&digits[start..]);
            }
            for token in [&*row, &tail] {
                out[len..len + SLOT].copy_from_slice(token);
                len += token[SLOT - 1] as usize;
            }
            if len >= WRITE_CHUNK {
                w.write_all(&out[..len])?;
                len = 0;
            }
        }
    }
    w.write_all(&out[..len])?;
    w.flush()
}

/// Convenience: write a pattern matrix to a file path.
pub fn write_pattern_file(a: &CscMatrix, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_pattern(a, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::Strategy;

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
        for ranges in [1, 3] {
            assert_eq!(
                read_file(&rect, Some(ranges), true)
                    .unwrap_err()
                    .to_string(),
                "Matrix Market parse error: the matrix is 2x3; ordering needs a square matrix"
            );
        }
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

    /// Matrix Market text for random entries in one of the layouts the
    /// readers accept, and the matrix `CooBuilder` makes of them: a
    /// `general` (possibly rectangular or empty) or `symmetric` file storing
    /// the lower, upper or a mix of both triangles, with diagonal entries;
    /// lines in column-major order (often without duplicates, so that every
    /// range stays in column runs) or shuffled, with duplicates; `%`
    /// comments and blank lines between entries, CRLF, `+` signs, tabs,
    /// extra tokens and no final newline.
    fn arb_layout(max_n: usize, max_entries: usize) -> impl Strategy<Value = (String, CscMatrix)> {
        (0..=max_n, 0..=max_n, 0..=max_entries).prop_perturb(|(rows, cols, m), mut rng| {
            let mut pick = |k: usize| (rng.next_u64() % k as u64) as usize;
            let storage = ["general", "lower", "upper", "mixed"][pick(4)];
            let symmetric = storage != "general";
            let cols = if symmetric { rows } else { cols };
            let m = if rows == 0 || cols == 0 { 0 } else { m };
            let mut b = crate::coo::CooBuilder::new(rows, cols);
            let mut entries = Vec::new();
            for _ in 0..m {
                let (mut r, mut c) = (pick(rows), pick(cols));
                if symmetric && pick(6) == 0 {
                    c = r;
                }
                let lower = match storage {
                    "lower" => true,
                    "upper" => false,
                    _ => pick(2) == 0,
                };
                if symmetric && ((r > c && !lower) || (r < c && lower)) {
                    std::mem::swap(&mut r, &mut c);
                }
                entries.push((r, c));
                if pick(10) == 0 {
                    entries.push((r, c));
                }
            }
            if pick(3) > 0 {
                entries.sort_by_key(|&(r, c)| (c, r));
                if pick(4) > 0 {
                    entries.dedup();
                }
            }
            let field = ["pattern", "real", "integer"][pick(3)];
            let newline = ["\n", "\r\n"][pick(2)];
            let mut body = String::new();
            for &(r, c) in &entries {
                if symmetric {
                    b.push_sym(r as Vidx, c as Vidx);
                } else {
                    b.push(r as Vidx, c as Vidx);
                }
                match pick(10) {
                    0 => body.push_str(&format!("% between entries{newline}")),
                    1 => body.push_str(&format!(" \t{newline}")),
                    _ => {}
                }
                let lead = ["", "", " ", "\t"][pick(4)];
                let sep = [" ", " ", "\t", " \t "][pick(4)];
                let plus = ["", "", "", "+"][pick(4)];
                body.push_str(&format!("{lead}{plus}{}{sep}{plus}{}", r + 1, c + 1));
                match field {
                    "real" => {
                        body.push_str(&format!("{sep}{}", ["1.5", "-2e-3", "+4.25"][pick(3)]))
                    }
                    "integer" => body.push_str(&format!("{sep}{}", ["-7", "3", "+12"][pick(3)])),
                    _ => {}
                }
                body.push_str(["", "", "", " 9 extra"][pick(4)]);
                body.push_str(newline);
            }
            if pick(4) == 0 {
                body.truncate(body.trim_end().len());
            }
            let symmetry = if symmetric { "symmetric" } else { "general" };
            let text = format!(
                "%%MatrixMarket matrix coordinate {field} {symmetry}{newline}% generated{newline}\
                 {rows} {cols} {}{newline}{body}",
                entries.len()
            );
            (text, b.build())
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]
        #[test]
        fn ranged_file_reads_match_the_stream_reader_and_the_builder(
            case in arb_layout(25, 80)
        ) {
            let (text, expected) = case;
            assert_eq!(read_pattern(text.as_bytes()).unwrap(), expected, "{text}");
            let path = temp_file("ranged-equivalence.mtx", &text);
            for ranges in 1..=4 {
                let (_, m) = read_file(&path, Some(ranges), false).unwrap();
                assert_eq!(m, expected, "{ranges} ranges over\n{text}");
            }
        }
    }

    #[test]
    fn ranged_file_reads_report_the_stream_readers_errors() {
        let mut cases: Vec<String> = [
            "%%NotMatrixMarket nothing\n1 1 0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n2 2\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 3\n",
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
            "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n2 1 1.0 0.0\n",
            "%%MatrixMarket matrix coordinate\n1 1 0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1 9\n1 1\n",
            "%%MatrixMarket matrix coordinate pattern general\nx y z\n",
            "%%MatrixMarket matrix coordinate pattern general\n-2 2 1\n1 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000000\n1 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n4294967296 2 1\n1 1\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 4294967296 1\n1 1\n",
            "%%MatrixMarket matrix coordinate real general\n99999999999999999999 2 1\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 3\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n2 2\n",
            "",
            // The largest dimensions: nothing is sized from them before the
            // entries are read.
            "%%MatrixMarket matrix coordinate pattern symmetric\n4294967295 4294967295 1\n1 x\n",
            "%%MatrixMarket matrix coordinate pattern general\n4294967295 4294967295 2\n2 1\n",
        ]
        .map(String::from)
        .into();
        for entry in ["1x 2", "1 2x", "1", "++1 2", "1 -2", "1 +", "a b", "1,2"] {
            cases.push(format!(
                "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n{entry}\n"
            ));
        }
        cases.push(format!(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2{}\n",
            " ".repeat(BUF_BYTES)
        ));
        // Errors past the first range: entry numbers and counts are the
        // whole file's.
        let (text, _) = banded_text(3_000);
        let bad_late = text.replacen("2990 2990\n", "2990 x\n", 1);
        assert_ne!(bad_late, text);
        let one_short = text.replacen("\n2999 2999\n", "\n", 1);
        let one_over = format!("{text}1 1\n");
        cases.extend([bad_late, one_short, one_over]);
        for (k, text) in cases.iter().enumerate() {
            let expected = read_pattern(text.as_bytes()).unwrap_err().to_string();
            let path = temp_file(&format!("ranged-error-{k}.mtx"), text);
            for ranges in [1, 3] {
                let got = read_file(&path, Some(ranges), false)
                    .unwrap_err()
                    .to_string();
                assert_eq!(got, expected, "{ranges} ranges over {text:.200}");
            }
            assert_eq!(read_pattern_file(&path).unwrap_err().to_string(), expected);
        }
    }
}

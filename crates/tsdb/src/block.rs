//! Typed blocks: a batch of line-protocol rows kept as columns.
//!
//! A campaign VM's day of speed tests is one bucket object. A [`Block`]
//! holds it as the values it was formatted from: a table of series heads
//! (the escaped `measurement,tag=value,...` start of a line), the field
//! names, and per row the index of its head, its time and one `f64` per
//! field. Nothing formats or parses a float on the way from the VM to the
//! store:
//!
//! * [`Block::render_into`] writes the line protocol the rows stand for,
//!   `head field=value,... time` per row with [`line::float_into`] values,
//!   when something asks for text;
//! * [`Db::ingest_block_with`](crate::Db::ingest_block_with) stores
//!   exactly what [`Db::ingest_lines_with`](crate::Db::ingest_lines_with)
//!   stores from that text, reading the columns in place;
//! * [`Block::from_rendered`] turns text back into a block, and only when
//!   that block renders to the very same bytes.

use crate::line;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Rows of line protocol held as columns (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Block {
    /// Field names, in the order every row's values follow.
    fields: Box<[Box<str>]>,
    /// Series heads, in the order [`Self::push_head`] added them.
    heads: Vec<Box<str>>,
    /// Per row: the index of its head.
    head_of: Vec<u32>,
    /// Per row: the timestamp.
    times: Vec<u64>,
    /// Per row, `fields.len()` values.
    values: Vec<f64>,
    /// Byte length of the rendered text.
    text_len: usize,
}

impl Block {
    /// An empty block whose rows carry `fields`, with room for `rows`
    /// rows.
    pub fn with_capacity(fields: &[&str], rows: usize) -> Block {
        Block {
            fields: fields.iter().map(|f| Box::from(*f)).collect(),
            heads: Vec::new(),
            head_of: Vec::with_capacity(rows),
            times: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows * fields.len()),
            text_len: 0,
        }
    }

    /// Adds a series head, written as a line starts (escaped, tags in
    /// the order they are written), and returns its index.
    pub fn push_head(&mut self, head: &str) -> u32 {
        self.heads.push(Box::from(head));
        u32::try_from(self.heads.len() - 1).unwrap_or(u32::MAX)
    }

    /// Appends a row of series `head` (an index [`Self::push_head`]
    /// returned) at `time`, with one value per field in field order. A
    /// row that breaks either rule still renders, as a line no ingest
    /// accepts: an unknown head renders empty, and a missing value as
    /// NaN; values past the field count are dropped.
    pub fn push_row(&mut self, head: u32, time: u64, values: &[f64]) {
        let head_len = self.head(head).len();
        self.head_of.push(head);
        self.times.push(time);
        let mut len = head_len + 1 + decimal_len(time) + 1;
        for (k, name) in self.fields.iter().enumerate() {
            let v = values.get(k).copied().unwrap_or(f64::NAN);
            self.values.push(v);
            len += usize::from(k > 0) + name.len() + 1 + line::float_len(v);
        }
        self.text_len += len + 1;
    }

    /// The head with index `h`, or `""` for an index no head has.
    pub(crate) fn head(&self, h: u32) -> &str {
        self.heads.get(h as usize).map_or("", |head| head.as_ref())
    }

    /// The field names, in value order.
    pub(crate) fn field_names(&self) -> impl Iterator<Item = &str> + Clone {
        self.fields.iter().map(|f| f.as_ref())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the block has no rows.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Byte length of the text [`Self::render_into`] writes.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Bytes the rows and heads take in memory: per row an index, a time
    /// and its values, plus the heads' text. A function of the contents
    /// only, so a block and its [`Self::from_rendered`] copy agree.
    pub fn column_bytes(&self) -> usize {
        let heads: usize = self.heads.iter().map(|h| h.len()).sum();
        self.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<u64>())
            + self.values.len() * std::mem::size_of::<f64>()
            + heads
    }

    /// Row `r` as `(head index, time, values)`.
    pub(crate) fn row(&self, r: usize) -> Option<(u32, u64, &[f64])> {
        let n = self.fields.len();
        Some((
            *self.head_of.get(r)?,
            *self.times.get(r)?,
            self.values.get(r * n..(r + 1) * n)?,
        ))
    }

    /// Number of distinct heads.
    pub(crate) fn head_count(&self) -> usize {
        self.heads.len()
    }

    /// True when every row renders as exactly one line: no head or field
    /// name holds a line break.
    pub(crate) fn one_line_per_row(&self) -> bool {
        !self
            .heads
            .iter()
            .chain(self.fields.iter())
            .any(|s| s.contains('\n'))
    }

    /// True when the field section of every row is one
    /// [`Db::ingest_lines`](crate::Db::ingest_lines) reads in place
    /// (finite values aside): at least one field, and names that are
    /// non-empty, need no escape and strictly ascend.
    pub(crate) fn plain_fields(&self) -> bool {
        !self.fields.is_empty()
            && self
                .fields
                .iter()
                .all(|f| !f.is_empty() && !line::needs_escape(f))
            && self.fields.windows(2).all(|w| w.first() < w.last())
    }

    /// Appends row `r`'s line, without its line break.
    pub(crate) fn row_line_into(&self, r: usize, out: &mut String) {
        let Some((h, time, values)) = self.row(r) else {
            return;
        };
        out.push_str(self.head(h));
        out.push(' ');
        for (k, (name, v)) in self.fields.iter().zip(values).enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(name);
            out.push('=');
            line::float_into(*v, out);
        }
        out.push(' ');
        use std::fmt::Write;
        let _ = write!(out, "{time}"); // fmt to String is infallible
    }

    /// Appends the rows as line protocol, one `\n`-terminated line each.
    pub fn render_into(&self, out: &mut String) {
        out.reserve(self.text_len);
        for r in 0..self.len() {
            self.row_line_into(r, out);
            out.push('\n');
        }
    }

    /// The block whose [`Self::render_into`] writes exactly `text`, or
    /// `None` when there is none: text with no lines, a line that does
    /// not end in `\n`, lacks a `head fields time` shape or a `u64` time,
    /// names other fields than the first line, or holds a value written
    /// in any form but the one rendering gives it.
    pub fn from_rendered(text: &str) -> Option<Block> {
        let rows = text.bytes().filter(|&b| b == b'\n').count();
        let mut block: Option<Block> = None;
        let mut heads: HashMap<&str, u32> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for raw in text.split_inclusive('\n') {
            let row = raw.strip_suffix('\n')?;
            let mut parts = row.rsplitn(3, ' ');
            let (time, fields, head) = (parts.next()?, parts.next()?, parts.next()?);
            let time: u64 = time.parse().ok()?;
            values.clear();
            for (k, pair) in fields.split(',').enumerate() {
                let (name, v) = pair.split_once('=')?;
                if block.is_none() {
                    names.push(name);
                } else if names.get(k) != Some(&name) {
                    return None;
                }
                values.push(v.parse().ok()?);
            }
            if values.len() != names.len() {
                return None;
            }
            let b = block.get_or_insert_with(|| Block::with_capacity(&names, rows));
            let h = match heads.entry(head) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => *e.insert(b.push_head(head)),
            };
            b.push_row(h, time, &values);
        }
        let block = block?;
        let mut check = String::new();
        block.render_into(&mut check);
        (check == text).then_some(block)
    }
}

/// Number of decimal digits in `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIELDS: [&str; 2] = ["a", "b"];

    fn rendered(b: &Block) -> String {
        let mut out = String::new();
        b.render_into(&mut out);
        assert_eq!(out.len(), b.text_len(), "{out:?}");
        out
    }

    #[test]
    fn renders_rows_as_lines() {
        let mut b = Block::with_capacity(&FIELDS, 3);
        let s1 = b.push_head("m,k=s1");
        let s2 = b.push_head("m,k=s\\ 2");
        b.push_row(s1, 3600, &[1.5, 100.0]);
        b.push_row(s2, 0, &[-0.0, 1e-7]);
        b.push_row(s1, 7200, &[f64::NAN, f64::INFINITY]);
        let text = rendered(&b);
        assert_eq!(
            text,
            "m,k=s1 a=1.5,b=100.0 3600\nm,k=s\\ 2 a=-0.0,b=0.0000001 0\n\
             m,k=s1 a=NaN,b=inf 7200\n"
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.column_bytes(), 3 * (4 + 8 + 16) + 6 + 8);
        assert_eq!(rendered(&Block::from_rendered(&text).unwrap()), text);
    }

    #[test]
    fn malformed_rows_render_as_rejected_lines() {
        let mut b = Block::with_capacity(&FIELDS, 2);
        b.push_row(7, 1, &[2.0]);
        b.push_row(7, 2, &[1.0, 2.0, 3.0]);
        assert_eq!(rendered(&b), " a=2.0,b=NaN 1\n a=1.0,b=2.0 2\n");
    }

    #[test]
    fn only_texts_that_render_back_become_blocks() {
        for text in [
            "",
            "m a=1.0,b=2.0 0",                    // no line break
            "m a=1.0,b=2.0 0\r\n",                // CRLF
            "m a=1,b=2.0 0\n",                    // integral value without ".0"
            "m a=1e5,b=2.0 0\n",                  // exponent
            "m a=1.0,b=2.0 -1\n",                 // negative time
            "m a=1.0,b=2.0 0\nm a=1.0 1\n",       // fewer fields
            "m a=1.0,c=2.0 0\nm a=1.0,b=2.0 1\n", // other names
            "m a=1.0,b=2.0 0\n\n",                // blank line
            "m a=1.0=2 0\n",
        ] {
            assert!(Block::from_rendered(text).is_none(), "{text:?}");
        }
        for text in [
            "m a=1.0,b=2.0 0\n",
            "m,k=v\\ w a=-0.0,b=NaN 0\n  x y a=1.0,b=-inf 18446744073709551615\n",
        ] {
            assert_eq!(rendered(&Block::from_rendered(text).unwrap()), text);
        }
    }
}
